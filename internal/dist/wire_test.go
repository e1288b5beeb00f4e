package dist

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata/")

// TestWireGolden pins sweepd's wire bytes in a fixed state: status
// codes, Content-Type headers and bodies of /healthz, /dist/v1/status,
// the structured error envelopes and the full /metrics exposition after
// one granted lease on chaosSweep(). The lease response itself carries
// content keys (pinned elsewhere), so only its status is recorded.
// Regenerate deliberately with
//
//	go test ./internal/dist -run TestWireGolden -update
func TestWireGolden(t *testing.T) {
	_, ts, _ := newTestCoordinator(t, chaosSweep(), time.Minute, 2)

	var buf bytes.Buffer
	for _, x := range []struct {
		method, path, body string
		status             bool // record the status line only
	}{
		{"GET", "/healthz", "", false},
		{"POST", PathLease, `{"worker":"w"}`, true},
		{"GET", PathStatus, "", false},
		{"POST", PathHeartbeat, `{"worker":"w","lease_id":"lease-99"}`, false},
		{"POST", PathLease, `{"worker":"w","bogus":1}`, false},
		{"POST", PathLease, `{}`, false},
		{"POST", PathLease, `{"worker":"w"} {}`, false},
		{"GET", PathLease, "", false},
		{"POST", PathStatus, "", false},
		{"GET", "/metrics", "", false},
	} {
		req, err := http.NewRequest(x.method, ts.URL+x.path, strings.NewReader(x.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "=== %s %s -> %d\n", x.method, x.path, resp.StatusCode)
		if !x.status {
			fmt.Fprintf(&buf, "Content-Type: %s\n%s", resp.Header.Get("Content-Type"), b)
		}
	}
	compareGolden(t, "wire.golden", buf.Bytes())
}

// TestMetricsDocumented checks that every metric family sweepd exports
// (with every optional source attached) is named verbatim in
// docs/distributed.md.
func TestMetricsDocumented(t *testing.T) {
	c, _, _ := newTestCoordinator(t, chaosSweep(), time.Minute, 2)
	var metrics strings.Builder
	c.writeMetrics(&metrics)
	doc, err := os.ReadFile("../../docs/distributed.md")
	if err != nil {
		t.Fatal(err)
	}
	families := 0
	for _, line := range strings.Split(metrics.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ = strings.Cut(name, " ")
			families++
			if !bytes.Contains(doc, []byte("`"+name+"`")) {
				t.Errorf("metric %s is not documented in docs/distributed.md", name)
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
