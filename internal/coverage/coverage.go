// Package coverage implements the line-coverage bit vectors Cloud9 uses
// as its global-strategy overlay (§3.3): workers set bits locally, ship
// the vector to the load balancer piggybacked on status updates, and the
// LB ORs vectors into the global view sent back to workers.
package coverage

import (
	"encoding/json"
	"errors"
	"math/bits"
)

// BitVec is a fixed-capacity bit vector; bit i represents source line i.
type BitVec struct {
	words []uint64
	n     int
}

// New returns a vector able to hold lines [0, n].
func New(n int) *BitVec {
	return &BitVec{words: make([]uint64, (n+64)/64), n: n}
}

// Len returns the capacity in bits.
func (v *BitVec) Len() int { return v.n + 1 }

// Set marks line i covered; it reports whether the bit was newly set.
func (v *BitVec) Set(i int) bool {
	if i < 0 || i > v.n {
		return false
	}
	w, b := i/64, uint(i%64)
	if v.words[w]&(1<<b) != 0 {
		return false
	}
	v.words[w] |= 1 << b
	return true
}

// Get reports whether line i is covered.
func (v *BitVec) Get(i int) bool {
	if i < 0 || i > v.n {
		return false
	}
	return v.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Count returns the number of covered lines.
func (v *BitVec) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Or merges other into v, returning the number of newly covered lines.
// A longer other grows v (words and capacity) rather than being silently
// truncated — vectors deserialized from peers built against a larger
// program table must not lose bits.
func (v *BitVec) Or(other *BitVec) int {
	if len(other.words) > len(v.words) {
		grown := make([]uint64, len(other.words))
		copy(grown, v.words)
		v.words = grown
	}
	if other.n > v.n {
		v.n = other.n
	}
	added := 0
	for i, w := range other.words {
		neu := w &^ v.words[i]
		added += bits.OnesCount64(neu)
		v.words[i] |= w
	}
	return added
}

// OrEach merges other into v like Or, additionally invoking fn with
// the index of every newly covered line. Callers that mirror coverage
// into a secondary structure (the cfg distance oracle) get the exact
// delta in O(changed words) instead of re-scanning their whole view
// per merge.
func (v *BitVec) OrEach(other *BitVec, fn func(line int)) int {
	if len(other.words) > len(v.words) {
		grown := make([]uint64, len(other.words))
		copy(grown, v.words)
		v.words = grown
	}
	if other.n > v.n {
		v.n = other.n
	}
	added := 0
	for i, w := range other.words {
		neu := w &^ v.words[i]
		v.words[i] |= w
		added += bits.OnesCount64(neu)
		for neu != 0 {
			fn(i*64 + bits.TrailingZeros64(neu))
			neu &= neu - 1
		}
	}
	return added
}

// Clone returns a copy of v.
func (v *BitVec) Clone() *BitVec {
	dup := &BitVec{words: append([]uint64(nil), v.words...), n: v.n}
	return dup
}

// Words returns a copy of the backing words for serialization. Callers
// used to receive the live slice, which aliased every later Set — a
// serialized snapshot could mutate under a concurrent sender. A fresh
// slice per call is deliberate: snapshots outlive the call (queued in
// messages, gob-encoded on other goroutines), so reusing a buffer here
// would reintroduce exactly that aliasing.
func (v *BitVec) Words() []uint64 {
	return append([]uint64(nil), v.words...)
}

// FromWords reconstructs a vector from serialized words.
func FromWords(words []uint64, n int) *BitVec {
	w := make([]uint64, (n+64)/64)
	copy(w, words)
	return &BitVec{words: w, n: n}
}

// bitVecJSON is BitVec's JSON form: the line capacity and the backing
// words.
type bitVecJSON struct {
	N     int
	Words []uint64
}

// MarshalJSON lets a BitVec held in a larger struct travel with it.
func (v *BitVec) MarshalJSON() ([]byte, error) {
	return json.Marshal(bitVecJSON{N: v.n, Words: v.words})
}

// UnmarshalJSON is MarshalJSON's inverse. The bytes may come from the
// network: a word count that disagrees with the declared capacity is an
// error, so every later Get and Set stays inside the slice.
func (v *BitVec) UnmarshalJSON(data []byte) error {
	var j bitVecJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.N < 0 || len(j.Words) != j.N/64+1 {
		return errors.New("coverage: bit vector capacity disagrees with its length")
	}
	v.n, v.words = j.N, j.Words
	return nil
}

// CoveredOf counts covered lines restricted to the given line set
// (used to report coverage as a percentage of a target's own lines).
func (v *BitVec) CoveredOf(lines map[int]bool) int {
	c := 0
	for ln := range lines {
		if v.Get(ln) {
			c++
		}
	}
	return c
}
