package corpus

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/service"
)

// TestBatchParityWithGoldens is the fleet-scale acceptance test: one
// POST /v1/batch carrying every corpus scenario (plus one invalid item)
// returns per-item schedule documents byte-identical to the frozen
// per-request golden bytes under testdata/golden/, nested as the envelope
// nests them, with the invalid item failing alone. Under -short only a
// subset of scenarios runs.
func TestBatchParityWithGoldens(t *testing.T) {
	scenarios := All()
	if testing.Short() {
		scenarios = scenarios[:8]
	}
	goldenRoot := filepath.Join("..", "..", "testdata", "golden")
	if _, err := os.Stat(goldenRoot); err != nil {
		t.Skipf("golden directory unavailable: %v", err)
	}

	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	type expect struct {
		name   string
		golden []byte // nil for the planted invalid item
	}
	var items []map[string]any
	var expects []expect
	for i, sc := range scenarios {
		s := sc.Build()
		params, err := sc.ResolveParams(s)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		fp, err := svc.Registry().Add(s)
		if err != nil {
			t.Fatalf("%s: register: %v", sc.Name, err)
		}
		golden, err := os.ReadFile(filepath.Join(goldenRoot, sc.Name, LayerServiceSchedule))
		if err != nil {
			t.Fatalf("%s: golden: %v", sc.Name, err)
		}
		items = append(items, map[string]any{
			"soc": fp,
			"params": service.ParamsJSON{
				TAMWidth:        params.TAMWidth,
				MaxWidth:        params.MaxWidth,
				Percent:         params.Percent,
				Delta:           params.Delta,
				PowerMax:        params.PowerMax,
				InsertSlack:     params.InsertSlack,
				MaxPreemptions:  params.MaxPreemptions,
				DisableWidening: params.DisableWidening,
				IgnoreHierarchy: params.IgnoreHierarchy,
				Workers:         1,
			},
			"best": !sc.SingleRun,
		})
		expects = append(expects, expect{name: sc.Name, golden: golden})
		if i == len(scenarios)/2 {
			// Plant one invalid item mid-batch: it must fail alone.
			items = append(items, map[string]any{
				"soc":    "no-such-soc",
				"params": service.ParamsJSON{TAMWidth: 16},
			})
			expects = append(expects, expect{name: "invalid"})
		}
	}

	payload, err := json.Marshal(map[string]any{"items": items, "workers": 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: HTTP %d: %s", resp.StatusCode, raw)
	}
	var batch service.BatchResponse
	if err := json.Unmarshal(raw, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != len(expects) {
		t.Fatalf("items = %d, want %d", len(batch.Items), len(expects))
	}
	if batch.Stats.Failed != 1 || batch.Stats.OK != len(expects)-1 {
		t.Fatalf("stats = %+v, want exactly the planted item failed", batch.Stats)
	}
	for i, want := range expects {
		got := batch.Items[i]
		if want.golden == nil {
			if got.Error == nil || got.Status != http.StatusNotFound {
				t.Fatalf("planted invalid item = %+v, want a 404 per-item error", got)
			}
			continue
		}
		if got.Error != nil {
			t.Fatalf("%s: item error %d %s: %s", want.name, got.Status, got.Error.Code, got.Error.Message)
		}
		if !bytes.Equal(got.Result, nested(want.golden)) {
			t.Errorf("%s: batch document differs from the frozen per-request golden", want.name)
		}
	}
}

// nested returns a standalone document's bytes as the batch envelope
// embeds them three levels deep: six spaces inserted after each newline,
// and the final newline dropped.
func nested(doc []byte) []byte {
	return bytes.ReplaceAll(bytes.TrimSuffix(doc, []byte("\n")), []byte("\n"), []byte("\n      "))
}
