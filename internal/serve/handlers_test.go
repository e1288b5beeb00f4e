package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/netlist"
)

// c17GNL renders the embedded c17 classic in the repo's native GNL
// format — a valid request-supplied netlist body.
func c17GNL(t *testing.T) string {
	t.Helper()
	c, err := mcnc.Load("c17", library.Default())
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := netlist.WriteGNL(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// errorEnvelope mirrors the wire format of structured errors.
type errorEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// TestHandlerValidation is the table-driven 4xx sweep: every endpoint,
// every malformed-input class, each mapped to a structured JSON error
// with the right status and stable machine-readable code.
func TestHandlerValidation(t *testing.T) {
	srv := New(Config{Workers: 2, MaxBodyBytes: 4096})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	bigGNL, err := json.Marshal(strings.Repeat("g wide nand9 y", 1000))
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"analyze malformed JSON", "POST", "/v1/analyze", `{"benchmark":`, 400, "invalid_json"},
		{"analyze not JSON at all", "POST", "/v1/analyze", `garbage`, 400, "invalid_json"},
		{"analyze trailing data", "POST", "/v1/analyze", `{"benchmark":"c17"} extra`, 400, "invalid_json"},
		{"analyze unknown field", "POST", "/v1/analyze", `{"benchmark":"c17","bogus":1}`, 400, "invalid_json"},
		{"analyze empty object", "POST", "/v1/analyze", `{}`, 400, "invalid_request"},
		{"analyze benchmark and gnl", "POST", "/v1/analyze", `{"benchmark":"c17","gnl":"x"}`, 400, "invalid_request"},
		{"analyze unknown benchmark", "POST", "/v1/analyze", `{"benchmark":"c1355x"}`, 404, "unknown_benchmark"},
		{"analyze bad scenario", "POST", "/v1/analyze", `{"benchmark":"c17","scenario":"C"}`, 400, "invalid_request"},
		{"analyze p without d", "POST", "/v1/analyze", `{"benchmark":"c17","p":0.5}`, 400, "invalid_request"},
		{"analyze p out of range", "POST", "/v1/analyze", `{"benchmark":"c17","p":1.5,"d":1}`, 400, "invalid_request"},
		{"analyze negative density", "POST", "/v1/analyze", `{"benchmark":"c17","p":0.5,"d":-1}`, 400, "invalid_request"},
		{"analyze scenario plus p/d", "POST", "/v1/analyze", `{"benchmark":"c17","scenario":"B","p":0.5,"d":1}`, 400, "invalid_request"},
		{"analyze GET", "GET", "/v1/analyze", ``, 405, "method_not_allowed"},
		{"analyze oversized GNL body", "POST", "/v1/analyze", `{"gnl":` + string(bigGNL) + `}`, 413, "body_too_large"},
		{"analyze invalid GNL", "POST", "/v1/analyze", `{"gnl":"not a netlist"}`, 400, "invalid_gnl"},

		{"optimize unknown mode", "POST", "/v1/optimize", `{"benchmark":"c17","mode":"fastest"}`, 400, "invalid_request"},
		{"optimize unknown objective", "POST", "/v1/optimize", `{"benchmark":"c17","objective":"median"}`, 400, "invalid_request"},
		{"optimize negative workers", "POST", "/v1/optimize", `{"benchmark":"c17","workers":-1}`, 400, "invalid_request"},
		{"optimize unknown benchmark", "POST", "/v1/optimize", `{"benchmark":"nope"}`, 404, "unknown_benchmark"},
		{"optimize malformed JSON", "POST", "/v1/optimize", `{`, 400, "invalid_json"},

		{"simulate unknown engine", "POST", "/v1/simulate", `{"benchmark":"c17","engine":"warp"}`, 400, "invalid_request"},
		{"simulate event engine", "POST", "/v1/simulate", `{"benchmark":"c17","engine":"event"}`, 400, "invalid_request"},
		{"simulate unknown delay", "POST", "/v1/simulate", `{"benchmark":"c17","delay":"sometimes"}`, 400, "invalid_request"},
		{"simulate vectors on event engine", "POST", "/v1/simulate", `{"benchmark":"c17","engine":"event","vectors":8}`, 400, "invalid_request"},
		{"simulate too many vectors", "POST", "/v1/simulate", `{"benchmark":"c17","vectors":4097}`, 400, "invalid_request"},
		{"simulate too many lanes", "POST", "/v1/simulate", `{"benchmark":"c17","lanes":513}`, 400, "invalid_request"},
		{"simulate lanes on event engine", "POST", "/v1/simulate", `{"benchmark":"c17","engine":"event","lanes":64}`, 400, "invalid_request"},
		{"simulate tick in zero-delay mode", "POST", "/v1/simulate", `{"benchmark":"c17","delay":"zero","tick":1e-10}`, 400, "invalid_request"},
		{"simulate negative tick", "POST", "/v1/simulate", `{"benchmark":"c17","delay":"unit","tick":-1e-10}`, 400, "invalid_request"},
		{"simulate horizon too long", "POST", "/v1/simulate", `{"benchmark":"c17","horizon":10}`, 400, "invalid_request"},
		{"simulate negative horizon", "POST", "/v1/simulate", `{"benchmark":"c17","horizon":-1}`, 400, "invalid_request"},
		{"simulate malformed JSON", "POST", "/v1/simulate", `[1,2]`, 400, "invalid_json"},

		{"sweep no benchmarks", "POST", "/v1/sweep", `{"benchmarks":[]}`, 400, "invalid_request"},
		{"sweep unknown benchmark", "POST", "/v1/sweep", `{"benchmarks":["c17","missing"]}`, 404, "unknown_benchmark"},
		{"sweep unknown scenario", "POST", "/v1/sweep", `{"benchmarks":["c17"],"scenarios":["Z"]}`, 400, "invalid_request"},
		{"sweep unknown mode", "POST", "/v1/sweep", `{"benchmarks":["c17"],"modes":["turbo"]}`, 400, "invalid_request"},
		{"sweep malformed JSON", "POST", "/v1/sweep", `{"benchmarks":`, 400, "invalid_json"},
		{"sweep GET", "GET", "/v1/sweep", ``, 405, "method_not_allowed"},

		{"healthz POST", "POST", "/healthz", `{}`, 405, "method_not_allowed"},
		{"metrics POST", "POST", "/metrics", `{}`, 405, "method_not_allowed"},
	}

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("error body is not structured JSON: %v (%s)", err, body)
			}
			if env.Error.Code != tc.wantCode {
				t.Fatalf("error code = %q, want %q (message %q)", env.Error.Code, tc.wantCode, env.Error.Message)
			}
			if env.Error.Message == "" {
				t.Fatal("error message is empty")
			}
		})
	}
}

// TestSimulateEngineNames: the compiled bit-parallel engine is the only
// one. Its names (and the empty default) are accepted and canonicalized
// in the response; the retired event engine gets a structured 400 whose
// message names the engine that remains.
func TestSimulateEngineNames(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	for _, name := range []string{``, `"engine":"bitparallel",`, `"engine":"bit-parallel",`} {
		code, body := post(`{` + name + `"benchmark":"c17","vectors":4}`)
		var sr simulateResponse
		if code != 200 || json.Unmarshal(body, &sr) != nil {
			t.Fatalf("%s: %d %s", name, code, body)
		}
		if sr.Engine != "bitparallel" {
			t.Fatalf("%s: response engine %q, want bitparallel", name, sr.Engine)
		}
	}
	code, body := post(`{"benchmark":"c17","engine":"event"}`)
	var env errorEnvelope
	if code != 400 || json.Unmarshal(body, &env) != nil {
		t.Fatalf("event engine: %d %s", code, body)
	}
	if env.Error.Code != "invalid_request" || !strings.Contains(env.Error.Message, "bitparallel") {
		t.Fatalf("event engine error %+v; want invalid_request naming bitparallel", env.Error)
	}
}

// TestSweepJobCap rejects cross products beyond the per-request bound.
func TestSweepJobCap(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	seeds := make([]string, 300)
	for i := range seeds {
		seeds[i] = "1"
	}
	// 1 benchmark × 2 scenarios × 2 modes × 300 seeds = 1200 > 1024.
	body := `{"benchmarks":["c17"],"modes":["full","input-only"],"seeds":[` + strings.Join(seeds, ",") + `]}`
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestEndpointsHappyPath exercises one valid request per endpoint,
// including a request-supplied GNL netlist, and checks the response
// shapes.
func TestEndpointsHappyPath(t *testing.T) {
	srv := New(Config{Workers: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	code, body := post("/v1/analyze", `{"benchmark":"c17","detail":true,"seed":7}`)
	var an analyzeResponse
	if code != 200 || json.Unmarshal(body, &an) != nil {
		t.Fatalf("analyze: %d %s", code, body)
	}
	if an.Gates != 6 || an.Power <= 0 || len(an.PerGate) != 6 {
		t.Fatalf("analyze shape off: %+v", an)
	}

	gnl, err := json.Marshal(c17GNL(t))
	if err != nil {
		t.Fatal(err)
	}
	code, body = post("/v1/analyze", `{"gnl":`+string(gnl)+`,"seed":7}`)
	var anGNL analyzeResponse
	if code != 200 || json.Unmarshal(body, &anGNL) != nil {
		t.Fatalf("analyze(gnl): %d %s", code, body)
	}
	if anGNL.Gates != an.Gates || anGNL.Power != an.Power {
		t.Fatalf("GNL body of c17 analyzed differently: %+v vs %+v", anGNL, an)
	}

	code, body = post("/v1/optimize", `{"benchmark":"rca4","mode":"input-only","return_gnl":true}`)
	var opt optimizeResponse
	if code != 200 || json.Unmarshal(body, &opt) != nil {
		t.Fatalf("optimize: %d %s", code, body)
	}
	if opt.PowerBefore <= 0 || opt.PowerAfter > opt.PowerBefore || opt.GNL == "" {
		t.Fatalf("optimize shape off: %+v", opt)
	}

	code, body = post("/v1/simulate", `{"benchmark":"c17","delay":"unit","vectors":4,"seed":5}`)
	var sr simulateResponse
	if code != 200 || json.Unmarshal(body, &sr) != nil {
		t.Fatalf("simulate: %d %s", code, body)
	}
	if sr.Lanes != 4 || sr.Energy <= 0 || sr.Steps == 0 {
		t.Fatalf("simulate shape off: %+v", sr)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"benchmarks":["c17"],"scenarios":["A"],"seeds":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("sweep Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(readAll(t, resp.Body)), "\n")
	if len(lines) != 3 { // 2 jobs + summary
		t.Fatalf("sweep streamed %d lines, want 3: %q", len(lines), lines)
	}
	var last map[string]sweepSummaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("summary line: %v (%s)", err, lines[len(lines)-1])
	}
	if s, ok := last["summary"]; !ok || s.Failed != 0 || len(s.Aggregates) != 1 {
		t.Fatalf("summary off: %+v", last)
	}
}

func readAll(t *testing.T, r io.Reader) string {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsAndHealthz checks the observability endpoints' formats.
func TestMetricsAndHealthz(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || body != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	// Drive one cached round trip so hit counters move.
	for i := 0; i < 2; i++ {
		r, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/json",
			strings.NewReader(`{"benchmark":"c17"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`servd_requests_total{endpoint="analyze",code="200"} 2`,
		`servd_cache_hits_total{cache="response"} 1`,
		`servd_cache_misses_total{cache="response"} 1`,
		`servd_cache_misses_total{cache="circuit"} 1`,
		"servd_queue_depth 0",
		"servd_shed_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}
