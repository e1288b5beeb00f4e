// Package httpapi is the HTTP plumbing shared by servd (internal/serve)
// and sweepd (internal/dist): structured JSON errors, strict request
// decoding, JSON responses and the Prometheus text exposition format.
// Callers build errors and metric families; the wire formats of both
// live only here.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Error is a structured API error: it renders as
// {"error":{"code":..., "message":...}} with the given status.
type Error struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return e.Code + ": " + e.Message }

// Errorf builds an Error with a formatted message.
func Errorf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// WriteError renders any error as the structured envelope; errors that
// are not an *Error become 500 internal.
func WriteError(w http.ResponseWriter, err error) {
	var he *Error
	if !errors.As(err, &he) {
		he = Errorf(http.StatusInternalServerError, "internal", "%v", err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(he.Status)
	json.NewEncoder(w).Encode(map[string]*Error{"error": he})
}

// ParseError reads a non-2xx response body back into an Error: the
// envelope's code and message when the body is one, otherwise code
// "unknown" with the raw body as the message.
func ParseError(status int, body []byte) *Error {
	var env struct {
		Error Error `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
		return &Error{Status: status, Code: env.Error.Code, Message: env.Error.Message}
	}
	return &Error{Status: status, Code: "unknown", Message: string(body)}
}

// WriteJSON sends v as a newline-terminated JSON body.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// DecodeJSON reads one JSON object from a POST body into dst: bodies
// beyond maxBody get 413, unknown fields and trailing data get 400, and
// other methods get 405.
func DecodeJSON(w http.ResponseWriter, r *http.Request, maxBody int64, dst any) error {
	if r.Method != http.MethodPost {
		return Errorf(http.StatusMethodNotAllowed, "method_not_allowed", "%s requires POST", r.URL.Path)
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return Errorf(http.StatusRequestEntityTooLarge, "body_too_large",
				"request body exceeds %d bytes", mbe.Limit)
		}
		return Errorf(http.StatusBadRequest, "invalid_json", "decoding request: %v", err)
	}
	if dec.More() {
		return Errorf(http.StatusBadRequest, "invalid_json", "trailing data after JSON object")
	}
	return nil
}

// RequireGET guards read-only endpoints (GET or HEAD) with 405.
func RequireGET(r *http.Request) error {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		return Errorf(http.StatusMethodNotAllowed, "method_not_allowed", "%s requires GET", r.URL.Path)
	}
	return nil
}

// ---------------------------------------------------------------------
// Prometheus text exposition.

// Family writes the HELP and TYPE lines of a metric family; typ is
// "counter" or "gauge". Labeled samples follow as `name{...} value`
// lines written by the caller.
func Family(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

type integer interface{ ~int | ~int64 | ~uint64 }

// Counter writes a counter family with one unlabeled sample.
func Counter[T integer](w io.Writer, name, help string, v T) {
	Family(w, name, "counter", help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// Gauge writes a gauge family with one unlabeled sample.
func Gauge[T integer](w io.Writer, name, help string, v T) {
	Family(w, name, "gauge", help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}
