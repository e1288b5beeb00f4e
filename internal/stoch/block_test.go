package stoch

import (
	"math"
	"strings"
	"testing"
)

// TestBlockValidate runs the register-block header checks through both
// stimulus formats: every case breaks one header field of a valid packed
// and a valid timed stimulus, and both Validates must name the fault.
func TestBlockValidate(t *testing.T) {
	inputs := []string{"a", "b"}
	lanes := []map[string]*Waveform{
		{"a": {Events: []Event{{Time: 1e-9, Value: true}}}, "b": {Initial: true}},
		{"a": {Initial: true}, "b": {Events: []Event{{Time: 3e-9, Value: true}}}},
	}
	ps, err := PackWaveforms(inputs, lanes, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := PackTimedWaveforms(inputs, lanes, 1e-8, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	validate := map[string]func(edit func(*Block)) error{
		"PackedStimulus": func(edit func(*Block)) error { c := *ps; edit(&c.Block); return c.Validate() },
		"TimedStimulus":  func(edit func(*Block)) error { c := *ts; edit(&c.Block); return c.Validate() },
	}
	for format, v := range validate {
		if err := v(func(*Block) {}); err != nil {
			t.Fatalf("%s: packed stimulus invalid: %v", format, err)
		}
	}
	for _, tc := range []struct {
		name, want string
		edit       func(*Block)
	}{
		{"words above MaxWords", "wider than", func(b *Block) { b.Words = MaxWords + 1 }},
		{"zero lanes", "lanes out of", func(b *Block) { b.Lanes = 0 }},
		{"too many lanes", "lanes out of", func(b *Block) { b.Lanes = MaxLanes + 1 }},
		{"zero horizon", "horizon", func(b *Block) { b.Horizon = 0 }},
		{"NaN horizon", "horizon", func(b *Block) { b.Horizon = math.NaN() }},
		{"infinite horizon", "horizon", func(b *Block) { b.Horizon = math.Inf(1) }},
		{"short Initial", "shape mismatch", func(b *Block) { b.Initial = b.Initial[:len(b.Initial)-1] }},
	} {
		for format, v := range validate {
			t.Run(tc.name+"/"+format, func(t *testing.T) {
				err := v(tc.edit)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Validate() = %v, want an error containing %q", err, tc.want)
				}
			})
		}
	}
}
