package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/mcnc"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata/")

// childEnv, when set, makes the test binary act as the swsim command so
// the golden test captures the exact bytes a user would see.
const childEnv = "SWSIM_GOLDEN_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden pins swsim's report on rca8 byte for byte in every delay
// mode: 200 vectors in 64-lane blocks and in 7-lane blocks (a partial
// last block either way), plus a single-vector run over a tenth of the
// default horizon whose VCD dump is pinned too. Regenerate with
//
//	go test ./cmd/swsim -run TestGolden -update
func TestGolden(t *testing.T) {
	src, ok := mcnc.EmbeddedSource("rca8")
	if !ok {
		t.Fatal("no embedded rca8")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "rca8.blif")
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	type tc struct {
		name string
		args []string
		vcd  bool
	}
	var cases []tc
	for _, mode := range []string{"zero", "unit", "elmore"} {
		for _, lanes := range []string{"64", "7"} {
			cases = append(cases, tc{mode + "_lanes" + lanes, []string{"-in", in, "-delay", mode, "-vectors", "200", "-lanes", lanes}, false})
		}
	}
	cases = append(cases, tc{"unit_vcd", []string{"-in", in, "-delay", "unit", "-vectors", "1", "-horizon", "5e-5"}, true})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := c.args
			vcdPath := filepath.Join(dir, c.name+".vcd")
			if c.vcd {
				args = append(args, "-vcd", vcdPath)
			}
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), childEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("swsim %v: %v\n%s", args, err, stderr.Bytes())
			}
			compareGolden(t, c.name+".golden", got)
			if c.vcd {
				dump, err := os.ReadFile(vcdPath)
				if err != nil {
					t.Fatal(err)
				}
				compareGolden(t, c.name+".vcd.golden", dump)
			}
		})
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
