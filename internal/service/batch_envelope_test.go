package service

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/bench"
)

// sampleDocs are real schedio documents, as the result cache stores
// them: classic single and best runs, an anneal schedule and a budgeted
// preempt-rectpack schedule over demo8 and d695.
var sampleDocs = sync.OnceValues(func() ([][]byte, error) {
	var docs [][]byte
	for _, c := range []struct {
		soc  string
		opts repro.Options
		best bool
	}{
		{"demo8", repro.Options{TAMWidth: 16}, false},
		{"d695", repro.Options{TAMWidth: 24, Percent: 10, Delta: 1}, true},
		{"d695", repro.Options{TAMWidth: 32, Backend: "anneal"}, false},
		{"demo8", repro.Options{TAMWidth: 12, Backend: "preempt-rectpack", MaxPreemptions: map[int]int{1: 1, 2: 1}}, false},
	} {
		s, err := bench.ByName(c.soc)
		if err != nil {
			return nil, err
		}
		schedule := repro.Schedule
		if c.best {
			schedule = repro.ScheduleBest
		}
		sch, err := schedule(s, c.opts)
		if err != nil {
			return nil, fmt.Errorf("%s %+v: %w", c.soc, c.opts, err)
		}
		var buf bytes.Buffer
		if err := repro.SaveSchedule(&buf, sch); err != nil {
			return nil, err
		}
		docs = append(docs, buf.Bytes())
	}
	return docs, nil
})

func loadSampleDocs(tb testing.TB) [][]byte {
	tb.Helper()
	docs, err := sampleDocs()
	if err != nil {
		tb.Fatal(err)
	}
	return docs
}

// awkwardMessages are error texts whose escaping a hand-written encoder
// could get wrong: HTML characters, quotes and backslashes, control
// characters, the JavaScript line separators and invalid UTF-8.
var awkwardMessages = []string{
	`unknown soc "<b>&amp;</b>"`,
	"a raw\nnewline, a \ttab, a \r return and a \x01 control",
	"line\u2028separator and paragraph\u2029separator",
	"invalid utf-8: \xff\xfe and a cut rune \xe2\x80",
	`back\slash and 'single' quotes`,
	"",
}

// TestBatchEnvelopeMatchesWriteJSON: writeBatch writes the same status,
// Content-Type and bytes as writeJSON for batches of one item and of
// MaxBatchItems items that mix cached and uncached documents with error
// items whose code and message need escaping.
func TestBatchEnvelopeMatchesWriteJSON(t *testing.T) {
	docs := loadSampleDocs(t)
	item := func(i int) BatchItemResult {
		if i%3 == 2 {
			msg := awkwardMessages[i/3%len(awkwardMessages)]
			return BatchItemResult{Index: i, Status: http.StatusUnprocessableEntity,
				Error: &ErrorBody{Code: CodeBadRequest + msg[:len(msg)/2], Message: msg}}
		}
		return BatchItemResult{Index: i, Status: http.StatusOK, Cached: i%2 == 0, Result: docs[i%len(docs)]}
	}
	var batches [][]BatchItemResult
	for i := range 2 * len(docs) * len(awkwardMessages) {
		batches = append(batches, []BatchItemResult{item(i)})
	}
	full := make([]BatchItemResult, MaxBatchItems)
	for i := range full {
		full[i] = item(i)
	}
	batches = append(batches, full)
	for _, items := range batches {
		got, want := BatchEnvelopes(items, batchStats(items, 3))
		if !bytes.Equal(got, want) {
			t.Fatalf("batch of %d items from item %+v:\n%s", len(items), items[0], firstDiff(got, want))
		}
	}
}

// firstDiff describes where got first departs from want.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-80, 0)
	return fmt.Sprintf("bytes differ at offset %d of %d (want %d):\ngot  %q\nwant %q",
		i, len(got), len(want), got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
}

// FuzzBatchEnvelope checks writeBatch against writeJSON on fuzzed
// batches: the error code and message, the statuses, the item count
// (1..MaxBatchItems), which items succeed and which of those are cached,
// the worker count, and which real schedio document each success carries.
// Item i's message is the fuzzed message cut to i mod (len + 1) bytes, so
// cuts through multi-byte runes put invalid UTF-8 into most batches.
func FuzzBatchEnvelope(f *testing.F) {
	docs := loadSampleDocs(f)
	for i, msg := range awkwardMessages {
		f.Add(CodeNotFound, msg, uint8(i*37), uint64(0x5555_5555_5555_5555)>>i, uint64(i), 200, 404, 1+i, uint8(i))
	}
	f.Add(CodeInternal, strings.Repeat("é", 40), uint8(255), ^uint64(0), uint64(0), 200, 500, 32, uint8(0))
	f.Fuzz(func(t *testing.T, code, msg string, count uint8, ok, cached uint64, okStatus, errStatus, workers int, docShift uint8) {
		items := make([]BatchItemResult, 1+int(count)%MaxBatchItems)
		for i := range items {
			bit := uint64(1) << (i % 64)
			if ok&bit != 0 {
				items[i] = BatchItemResult{Index: i, Status: okStatus, Cached: cached&bit != 0,
					Result: docs[(i+int(docShift))%len(docs)]}
			} else {
				items[i] = BatchItemResult{Index: i, Status: errStatus,
					Error: &ErrorBody{Code: code, Message: msg[:i%(len(msg)+1)]}}
			}
		}
		if got, want := BatchEnvelopes(items, batchStats(items, workers)); !bytes.Equal(got, want) {
			t.Fatalf("batch of %d items:\n%s", len(items), firstDiff(got, want))
		}
	})
}
