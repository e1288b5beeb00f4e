package httpapi

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteError covers the envelope's two producers and its reader; the
// daemons' wire goldens pin decoding, GET guards and the exposition.
func TestWriteError(t *testing.T) {
	for _, tc := range []struct {
		err        error
		wantStatus int
		wantBody   string
	}{
		{Errorf(http.StatusGone, "lease_gone", "lease %s expired", "l-1"), 410,
			`{"error":{"code":"lease_gone","message":"lease l-1 expired"}}` + "\n"},
		{errors.New("disk full"), 500,
			`{"error":{"code":"internal","message":"disk full"}}` + "\n"},
	} {
		rec := httptest.NewRecorder()
		WriteError(rec, tc.err)
		if rec.Code != tc.wantStatus || rec.Body.String() != tc.wantBody ||
			rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("WriteError(%v) = %d %q %q", tc.err, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
		}
		// The client side reads the same envelope back.
		he := ParseError(rec.Code, rec.Body.Bytes())
		if he.Status != tc.wantStatus || !strings.Contains(tc.wantBody, he.Code) || !strings.Contains(tc.wantBody, he.Message) {
			t.Errorf("ParseError round trip = %+v", he)
		}
	}
	if he := ParseError(502, []byte("bad gateway")); he.Code != "unknown" || he.Message != "bad gateway" {
		t.Errorf("ParseError(non-envelope) = %+v", he)
	}
}
