package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
)

// BatchEnvelopes returns what writeBatch writes for one batch answer and
// what writeJSON writes for the same BatchResponse, each as its status
// line, its Content-Type and its body. The corpus-wide envelope test runs
// from package service_test, because the corpus imports this package;
// the tests of this package call it too.
func BatchEnvelopes(items []BatchItemResult, st BatchStats) (got, want []byte) {
	fast, oracle := httptest.NewRecorder(), httptest.NewRecorder()
	writeBatch(fast, items, st)
	writeJSON(oracle, http.StatusOK, BatchResponse{Items: items, Stats: st})
	dump := func(rec *httptest.ResponseRecorder) []byte {
		return append(fmt.Appendf(nil, "%d %s\n", rec.Code, rec.Header().Get("Content-Type")), rec.Body.Bytes()...)
	}
	return dump(fast), dump(oracle)
}
