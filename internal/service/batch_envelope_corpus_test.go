package service_test

import (
	"bytes"
	"net/http"
	"testing"

	"repro/internal/corpus"
	"repro/internal/sched"
	"repro/internal/service"
)

// TestBatchEnvelopeCorpusDocuments: for the schedio document of every
// corpus scenario from every backend that accepts the scenario's params,
// the batch writer's answer equals writeJSON's, alone in a batch of one,
// cached and not, and together in batches of up to MaxBatchItems items.
// It runs from package service_test because the corpus imports the
// service.
func TestBatchEnvelopeCorpusDocuments(t *testing.T) {
	var docs []service.BatchItemResult
	for _, sc := range corpus.All() {
		params, err := sc.ResolveParams(sc.Build())
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for _, backend := range sched.Backends() {
			b, err := sched.BackendByName(backend)
			if err != nil {
				t.Fatal(err)
			}
			if _, declined := sched.BackendDeclines(b, params); declined {
				continue
			}
			_, doc, err := corpus.ReplaySchedule(sc, backend)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, service.BatchItemResult{Status: http.StatusOK, Result: doc})
		}
	}
	check := func(items []service.BatchItemResult) {
		t.Helper()
		st := service.BatchStats{Items: len(items), OK: len(items), Workers: 1}
		for i := range items {
			items[i].Index = i
			if items[i].Cached {
				st.CacheHits++
			}
		}
		if got, want := service.BatchEnvelopes(items, st); !bytes.Equal(got, want) {
			t.Fatalf("batch of %d documents: the batch writer's %d bytes differ from writeJSON's %d", len(items), len(got), len(want))
		}
	}
	for _, it := range docs {
		for _, cached := range []bool{false, true} {
			it.Cached = cached
			check([]service.BatchItemResult{it})
		}
	}
	for lo := 0; lo < len(docs); lo += service.MaxBatchItems {
		items := append([]service.BatchItemResult(nil), docs[lo:min(lo+service.MaxBatchItems, len(docs))]...)
		for i := range items {
			items[i].Cached = i%2 == 1
		}
		check(items)
	}
	t.Logf("%d documents", len(docs))
}
