package serve

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata/")

// TestWireGolden pins servd's wire bytes in a fixed state: status codes,
// Content-Type headers and bodies of /healthz, the structured error
// envelopes and the full /metrics exposition after two identical
// /v1/analyze calls on a server with a result store. Regenerate
// deliberately with
//
//	go test ./internal/serve -run TestWireGolden -update
func TestWireGolden(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(New(Config{Workers: 2, MaxBodyBytes: 4096, Store: st}))
	defer ts.Close()

	var buf bytes.Buffer
	for _, x := range []struct{ method, path, body string }{
		{"GET", "/healthz", ""},
		{"POST", "/v1/analyze", `{"benchmark":"c17"}`},
		{"POST", "/v1/analyze", `{"benchmark":"c17"}`},
		{"POST", "/v1/analyze", `{"benchmark":"c1355x"}`},
		{"POST", "/v1/analyze", `{"benchmark":`},
		{"POST", "/v1/analyze", `{"benchmark":"c17","bogus":1}`},
		{"POST", "/v1/analyze", `{"benchmark":"c17"} extra`},
		{"POST", "/v1/analyze", `{"gnl":"` + strings.Repeat("x", 5000) + `"}`},
		{"GET", "/v1/analyze", ""},
		{"POST", "/metrics", ""},
		{"GET", "/metrics", ""},
	} {
		writeExchange(t, &buf, ts.Client(), ts.URL, x.method, x.path, x.body)
	}
	compareGolden(t, "wire.golden", buf.Bytes())
}

// writeExchange performs one request and appends its status line,
// Content-Type and body to buf.
func writeExchange(t *testing.T, buf *bytes.Buffer, client *http.Client, base, method, path, body string) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(buf, "=== %s %s -> %d\nContent-Type: %s\n%s", method, path, resp.StatusCode, resp.Header.Get("Content-Type"), b)
}

// TestMetricsDocumented checks that every metric family servd exports
// (with every optional source attached) is named verbatim in
// docs/api.md.
func TestMetricsDocumented(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var metrics strings.Builder
	New(Config{Store: st}).writeMetrics(&metrics)
	doc, err := os.ReadFile("../../docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	families := 0
	for _, line := range strings.Split(metrics.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ = strings.Cut(name, " ")
			families++
			if !bytes.Contains(doc, []byte("`"+name+"`")) {
				t.Errorf("metric %s is not documented in docs/api.md", name)
			}
		}
	}
	if families == 0 {
		t.Fatal("no metric families exported")
	}
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
