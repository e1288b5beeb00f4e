package netlist_test

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gate"
	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/netlist"
)

// TestParseBLIFNeverPanics throws random byte soup and random mutations
// of valid BLIF at the parser: it must return an error or a network,
// never panic.
func TestParseBLIFNeverPanics(t *testing.T) {
	valid := `.model fuzz
.inputs a b c
.outputs z
.names a b t
11 1
.names t c z
00 1
.end
`
	tokens := []string{
		".model", ".inputs", ".outputs", ".names", ".gate", ".end", ".latch",
		"a", "b", "z", "11 1", "0- 1", "\\", "#x", "=", "y=z", "1", "-",
	}
	cfg := &quick.Config{MaxCount: 300}
	err := quick.Check(func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on seed %d: %v", seed, r)
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		var src string
		if rng.Intn(2) == 0 {
			// Random token soup.
			var b strings.Builder
			for i := 0; i < rng.Intn(40); i++ {
				b.WriteString(tokens[rng.Intn(len(tokens))])
				if rng.Intn(3) == 0 {
					b.WriteByte('\n')
				} else {
					b.WriteByte(' ')
				}
			}
			src = b.String()
		} else {
			// Mutate the valid netlist: delete/duplicate random lines.
			lines := strings.Split(valid, "\n")
			var out []string
			for _, l := range lines {
				switch rng.Intn(5) {
				case 0: // drop
				case 1:
					out = append(out, l, l)
				default:
					out = append(out, l)
				}
			}
			src = strings.Join(out, "\n")
		}
		_, _ = netlist.ParseBLIF(strings.NewReader(src))
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestReadGNLNeverPanics mirrors the BLIF fuzz for the native format.
func TestReadGNLNeverPanics(t *testing.T) {
	valid := `circuit fuzz
inputs a b
outputs z
gate u1 nand2 y=z a=a b=b pd=s(a,b) pu=p(a,b)
end
`
	lib := library.Default()
	cfg := &quick.Config{MaxCount: 300}
	err := quick.Check(func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on seed %d: %v", seed, r)
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		lines := strings.Split(valid, "\n")
		var out []string
		for _, l := range lines {
			switch rng.Intn(6) {
			case 0:
			case 1:
				out = append(out, l, l)
			case 2:
				// Corrupt a character.
				if len(l) > 0 {
					i := rng.Intn(len(l))
					out = append(out, l[:i]+"~"+l[i:])
				}
			default:
				out = append(out, l)
			}
		}
		_, _ = netlist.ReadGNL(strings.NewReader(strings.Join(out, "\n")), lib)
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// FuzzReadGNL feeds arbitrary bytes to the GNL reader. An accepted
// circuit must be valid, every instance's configuration must be the
// interned member of its own orbit, and writing the circuit back must
// read as the same configuration pointers.
func FuzzReadGNL(f *testing.F) {
	lib := library.Default()
	for _, name := range mcnc.EmbeddedNames() {
		c, err := mcnc.Load(name, lib)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := netlist.WriteGNL(&buf, c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	// Parallel branches listed out of the library's order.
	f.Add(`circuit perm
inputs a1 a2 b1 b2 c1 c2
outputs z
gate u1 aoi222 y=z a1=a1 a2=a2 b1=b1 b2=b2 c1=c1 c2=c2 pd=p(s(c1,c2),s(a1,a2),s(b1,b2))
end
`)
	f.Fuzz(func(t *testing.T, src string) {
		c, err := netlist.ReadGNL(strings.NewReader(src), lib)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted circuit fails Validate: %v", err)
		}
		cells := make(map[string]*gate.Gate, len(c.Gates))
		for _, g := range c.Gates {
			if !slices.Contains(g.Cell.AllConfigs(), g.Cell) {
				t.Fatalf("instance %s: configuration %v is not in its own AllConfigs", g.Name, g.Cell)
			}
			cells[g.Name] = g.Cell
		}
		var buf bytes.Buffer
		if err := netlist.WriteGNL(&buf, c); err != nil {
			t.Fatal(err)
		}
		back, err := netlist.ReadGNL(&buf, lib)
		if err != nil {
			t.Fatalf("written circuit does not read back: %v\n%s", err, buf.String())
		}
		if len(back.Gates) != len(c.Gates) {
			t.Fatalf("read back %d gates, wrote %d", len(back.Gates), len(c.Gates))
		}
		for _, g := range back.Gates {
			if cells[g.Name] != g.Cell {
				t.Fatalf("instance %s reads back as %v, was %v", g.Name, g.Cell, cells[g.Name])
			}
		}
	})
}

// FuzzParseBLIF feeds arbitrary bytes to the BLIF parser: it must return
// a network or an error, never panic.
func FuzzParseBLIF(f *testing.F) {
	for _, name := range mcnc.EmbeddedNames() {
		src, _ := mcnc.EmbeddedSource(name)
		nw, err := netlist.ParseBLIF(strings.NewReader(src))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := netlist.WriteBLIF(&buf, nw); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = netlist.ParseBLIF(strings.NewReader(src))
	})
}
