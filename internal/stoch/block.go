package stoch

import "fmt"

// MaxLanes is the number of independent Monte Carlo vector streams one
// machine word carries: one per bit.
const MaxLanes = 64

// MaxWords is the widest register block the bit-parallel engines
// evaluate: W machine words per node, structure-of-arrays, so a packed
// stimulus carries up to MaxPackLanes independent lanes. The engines
// evaluate four words at a time and any remainder one word at a time.
const MaxWords = 8

// MaxPackLanes is the lane capacity of the widest register block.
const MaxPackLanes = MaxWords * MaxLanes

// WordsFor returns the register-block width (words per node) that holds
// the given number of lanes: ceil(lanes/64), without range checking.
func WordsFor(lanes int) int {
	return (lanes + MaxLanes - 1) / MaxLanes
}

// Block is the register-block header both packed stimulus formats share
// (PackedStimulus and TimedStimulus embed it): the input order, the
// active lanes and block width, the per-lane horizon and every lane's
// inputs at t=0. Lane l lives in word l/64, bit l%64 of its block, and
// word w of input i's block at t=0 is Initial[i·W+w], W = WordWidth().
type Block struct {
	Inputs  []string // primary-input order; Initial and the payload rows are parallel to it
	Lanes   int      // active lanes, 1..Words·64
	Words   int      // register-block width in words; 0 is treated as 1
	Horizon float64  // per-lane simulated seconds (power normalization)
	Initial []uint64 // [input·W + w] lane bits at t=0
}

// WordWidth returns the register-block width W in words (≥ 1).
func (b *Block) WordWidth() int {
	if b.Words < 1 {
		return 1
	}
	return b.Words
}

// LaneMask returns the mask selecting the active lanes of word 0. For an
// over-range block (Lanes outside what Validate accepts) it returns 0
// rather than a full word, so skipping Validate cannot meter phantom
// lanes.
func (b *Block) LaneMask() uint64 { return b.WordMask(0) }

// WordMask returns the mask selecting the active lanes of block word w:
// all-ones for fully occupied words, a partial mask for the last active
// word, 0 for words beyond the active lanes — and 0 for every word when
// Lanes is outside the range Validate accepts.
func (b *Block) WordMask(w int) uint64 {
	W := b.WordWidth()
	if b.Lanes < 1 || b.Lanes > W*MaxLanes || w < 0 || w >= W {
		return 0
	}
	rem := b.Lanes - w*MaxLanes
	switch {
	case rem <= 0:
		return 0
	case rem >= MaxLanes:
		return ^uint64(0)
	}
	return uint64(1)<<uint(rem) - 1
}

// Validate checks the header: the block width, the lane count, the
// horizon and the length of Initial.
func (b *Block) Validate() error {
	W := b.WordWidth()
	if W > MaxWords {
		return fmt.Errorf("stoch: %d-word register block wider than %d", W, MaxWords)
	}
	if b.Lanes < 1 || b.Lanes > W*MaxLanes {
		return fmt.Errorf("stoch: %d lanes out of [1,%d]", b.Lanes, W*MaxLanes)
	}
	if !positiveFinite(b.Horizon) {
		return fmt.Errorf("stoch: stimulus horizon %v must be positive and finite", b.Horizon)
	}
	if len(b.Initial) != len(b.Inputs)*W {
		return fmt.Errorf("stoch: stimulus shape mismatch: %d inputs × %d words, %d initial words",
			len(b.Inputs), W, len(b.Initial))
	}
	return nil
}
