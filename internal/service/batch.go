package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"

	"repro/internal/obs"
	"repro/internal/sched"
)

// MaxBatchItems bounds one POST /v1/batch request. A batch occupies one
// admission slot however many items it carries, so the cap keeps a single
// request from monopolizing the scheduler for minutes; split larger
// workloads across batches.
const MaxBatchItems = 256

// MaxBatchWorkers caps per-batch fan-out regardless of the request's
// workers field.
const MaxBatchWorkers = 32

// BatchItemJSON is one scheduling request inside POST /v1/batch: the same
// (soc, params) pair as /v1/schedule, plus the mode bit. Best selects the
// grid-swept best schedule — item-level, because one batch may mix modes.
type BatchItemJSON struct {
	SOC    string     `json:"soc"`
	Params ParamsJSON `json:"params"`
	Best   bool       `json:"best,omitempty"`
}

// BatchRequest is the POST /v1/batch body. Workers bounds the batch's
// worker pool (0 = GOMAXPROCS, capped at MaxBatchWorkers and the item
// count); results are identical for any worker count.
type BatchRequest struct {
	Items   []BatchItemJSON `json:"items"`
	Workers int             `json:"workers,omitempty"`
}

// BatchItemResult is one item's outcome. Exactly one of Result and Error
// is set: Result carries the same document the per-request endpoint
// serves for this item, Error the same {code,message} body a failed
// per-request call carries. On the wire the document sits three levels
// deep in the envelope, as the per-request body with its final newline
// dropped and six spaces inserted after every other newline (see
// writeBatch); reversing that recovers the per-request bytes.
type BatchItemResult struct {
	Index  int  `json:"index"`
	Status int  `json:"status"`
	Cached bool `json:"cached,omitempty"`
	// Result is the schedule document (present on success).
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the item's error body (present on failure).
	Error *ErrorBody `json:"error,omitempty"`
}

// BatchStats summarizes a batch response.
type BatchStats struct {
	Items     int `json:"items"`
	OK        int `json:"ok"`
	Failed    int `json:"failed"`
	CacheHits int `json:"cacheHits"`
	Workers   int `json:"workers"`
}

// BatchResponse is the POST /v1/batch answer: one result per item, in
// item order, plus the summary. The batch itself always answers 200 —
// per-item failures live in their own slots, so one bad item never fails
// the rest.
type BatchResponse struct {
	Items []BatchItemResult `json:"items"`
	Stats BatchStats        `json:"stats"`
}

// batchWorkers resolves a batch's fan-out: the request's workers field
// through the library's convention (0 = GOMAXPROCS), capped at
// MaxBatchWorkers and the item count.
func batchWorkers(requested, items int) int {
	n := sched.ResolveWorkers(requested)
	if n > MaxBatchWorkers {
		n = MaxBatchWorkers
	}
	if n > items {
		n = items
	}
	return n
}

// handleBatch answers POST /v1/batch: every item runs through the result
// cache on a bounded worker pool under the batch's root span, one child
// span per item. The whole batch holds one admission slot and runs under
// one server-capped deadline; each item may shorten its own with
// params.timeoutMs.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("batch has no items"))
		return
	}
	if len(req.Items) > MaxBatchItems {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("batch has %d items, max %d", len(req.Items), MaxBatchItems))
		return
	}
	if req.Workers < 0 {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("workers=%d must be >= 0", req.Workers))
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.deadlineCtx(r.Context(), 0)
	defer cancel()

	workers := batchWorkers(req.Workers, len(req.Items))
	out := make([]BatchItemResult, len(req.Items))
	// ForEach, not ForEachContext: every slot must be filled, so items
	// still run (and answer 504) once the batch deadline has passed.
	sched.ForEach(workers, len(req.Items), func(i int) {
		out[i] = s.runBatchItem(ctx, i, req.Items[i])
	})

	s.metrics.batches.Add(1)
	writeBatch(w, out, batchStats(out, workers))
}

// batchStats summarizes a batch's results: an item without an error is
// ok, and a cache hit when it is cached.
func batchStats(items []BatchItemResult, workers int) BatchStats {
	st := BatchStats{Items: len(items), Workers: workers}
	for _, it := range items {
		if it.Error == nil {
			st.OK++
			if it.Cached {
				st.CacheHits++
			}
		} else {
			st.Failed++
		}
	}
	return st
}

// writeBatch writes the 200 answer BatchResponse{Items: items, Stats: st}
// byte for byte as writeJSON encodes it, without sending the documents
// through encoding/json again. Every Result is a repro.SaveSchedule
// document, which its json.Encoder wrote as json.Indent of its compact
// form with a two-space indent, plus a newline. writeJSON would compact
// the document and indent it again three levels deeper, so writeBatch
// splices it in as it is, except that the final newline is dropped and
// six spaces follow every other newline. Index, status and the stats are
// decimal integers, and the error code and message go through
// json.Marshal, so their escaping is encoding/json's. items must not be
// empty; handleBatch refuses an empty batch before it runs anything.
func writeBatch(w http.ResponseWriter, items []BatchItemResult, st BatchStats) {
	size := 256 // the stats; per item, its keys and a typical error body
	for _, it := range items {
		size += 256 + len(it.Result) + len(nestIndent)*bytes.Count(it.Result, newline)
	}
	b := append(make([]byte, 0, size), "{\n  \"items\": ["...)
	for i, it := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "\n    {\n      \"index\": %d,\n      \"status\": %d", it.Index, it.Status)
		if it.Cached {
			b = append(b, ",\n      \"cached\": true"...)
		}
		if len(it.Result) > 0 {
			b = appendNested(append(b, ",\n      \"result\": "...), it.Result)
		}
		if e := it.Error; e != nil {
			b = appendString(append(b, ",\n      \"error\": {\n        \"code\": "...), e.Code)
			b = appendString(append(b, ",\n        \"message\": "...), e.Message)
			b = append(b, "\n      }"...)
		}
		b = append(b, "\n    }"...)
	}
	b = fmt.Appendf(b, "\n  ],\n  \"stats\": {\n    \"items\": %d,\n    \"ok\": %d,\n    \"failed\": %d,\n    \"cacheHits\": %d,\n    \"workers\": %d\n  }\n}\n",
		st.Items, st.OK, st.Failed, st.CacheHits, st.Workers)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // a failed write means the client is gone; no one is left to tell
}

var newline = []byte{'\n'}

// nestIndent is what writeJSON's encoder puts after each newline of a
// document nested three levels deep (items, item, result) beyond what
// the document's own encoder put there.
const nestIndent = "      "

// appendNested appends doc, a document that ends in one newline, as
// writeJSON's encoder nests it three levels deep: without the final
// newline, and with nestIndent after every other newline. JSON strings
// hold no raw newline, so each one is the encoder's own.
func appendNested(b, doc []byte) []byte {
	doc = bytes.TrimSuffix(doc, newline)
	for {
		i := bytes.IndexByte(doc, '\n')
		if i < 0 {
			return append(b, doc...)
		}
		b = append(append(b, doc[:i+1]...), nestIndent...)
		doc = doc[i+1:]
	}
}

// appendString appends s quoted and escaped as json.Marshal writes it.
func appendString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// runBatchItem executes one batch item through scheduleItem, the same
// path a per-request call takes, under its own child span and per-item
// deadline. Failures land in the item's own slot with the same status and
// error body a per-request call would answer; a panic is recovered into
// the slot as the middleware would answer it (500 internal), since the
// item may run on a batch worker goroutine no other recover covers.
func (s *Server) runBatchItem(ctx context.Context, i int, item BatchItemJSON) (res BatchItemResult) {
	ctx, span := obs.Start(ctx, "batch/item")
	defer span.End()
	span.SetAttr("index", i)
	span.SetAttr("soc", item.SOC)
	defer func() {
		if p := recover(); p != nil {
			s.metrics.panics.Add(1)
			s.logf("msg=panic item=%d trace=%s err=%q\n%s", i, span.TraceID(), fmt.Sprint(p), debug.Stack())
			span.SetAttr("error", "internal error")
			res = BatchItemResult{Index: i, Status: http.StatusInternalServerError,
				Error: &ErrorBody{Code: CodeInternal, Message: "internal error"}}
		}
	}()

	var doc []byte
	var hit bool
	e := item.Params.validate()
	if e == nil {
		doc, hit, e = s.scheduleItem(ctx, item.SOC, item.Params, item.Best)
	}
	if e != nil {
		span.SetAttr("error", e.Error())
		body := e.body()
		return BatchItemResult{Index: i, Status: e.status, Error: &body}
	}
	span.SetAttr("cached", hit)
	return BatchItemResult{Index: i, Status: http.StatusOK, Cached: hit, Result: json.RawMessage(doc)}
}
