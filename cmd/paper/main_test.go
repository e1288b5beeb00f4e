package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata/")

// childEnv, when set, makes the test binary act as the paper command so
// the golden test captures the exact bytes a user would see.
const childEnv = "PAPER_GOLDEN_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden pins every reproduced table and figure byte for byte. Table 3
// runs at a reduced horizon and cycle count to keep the test fast; the
// full-size sweep uses the same code path. Regenerate with
//
//	go test ./cmd/paper -run TestGolden -update
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"table1", []string{"table1"}},
		{"table2", []string{"table2"}},
		{"fig1", []string{"fig1"}},
		{"fig5", []string{"fig5"}},
		{"scenarios", []string{"scenarios"}},
		{"rules", []string{"rules"}},
		{"rca", []string{"rca"}},
		{"glitches", []string{"glitches"}},
		{"table3_a", []string{"table3", "-scenario", "A", "-horizon", "5e-5"}},
		{"table3_b", []string{"table3", "-scenario", "B", "-cycles", "200"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.args[0] == "table3" {
				t.Skip("table3 sweeps all 39 benchmarks")
			}
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), childEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("paper %v: %v\n%s", tc.args, err, stderr.Bytes())
			}
			path := filepath.Join("testdata", tc.name+".golden")
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
				t.Errorf("paper %v output differs from %s\n--- got ---\n%s\n--- want ---\n%s", tc.args, path, got, want)
			}
		})
	}
}

// TestTable3RejectsUnknownScenario checks that a scenario other than A or
// B is an error rather than a silent scenario-A run.
func TestTable3RejectsUnknownScenario(t *testing.T) {
	err := table3([]string{"-scenario", "x", "-bench", "c17"})
	if err == nil || !strings.Contains(err.Error(), `unknown scenario "x"`) {
		t.Fatalf("table3 -scenario x: err = %v, want unknown scenario", err)
	}
}
