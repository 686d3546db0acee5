package solver

import "testing"

func (d *domain) has(v uint8) bool {
	return d.bits[v>>6]&(1<<(v&63)) != 0
}

func (d *domain) remove(v uint8) {
	d.bits[v>>6] &^= 1 << (v & 63)
}

// Reference implementation: the per-value loop the word-mask version
// replaced.
func removeOutsideLoop(d *domain, lo, hi uint8) {
	for v := 0; v < 256; v++ {
		if v < int(lo) || v > int(hi) {
			d.remove(uint8(v))
		}
	}
}

// patternedDomain returns a non-trivial starting set so the equivalence
// checks exercise partial words, not just the full domain.
func patternedDomain(seed uint64) domain {
	d := fullDomain()
	for v := 0; v < 256; v++ {
		if (uint64(v)*0x9e3779b97f4a7c15+seed)%3 == 0 {
			d.remove(uint8(v))
		}
	}
	return d
}

// Exhaustive over every (lo, hi) endpoint pair: the mask version must
// match the loop version bit for bit.
func TestDomainRangeMaskEquivalence(t *testing.T) {
	for lo := 0; lo < 256; lo++ {
		for hi := lo; hi < 256; hi++ {
			a := patternedDomain(uint64(lo))
			b := a
			a.removeOutside(uint8(lo), uint8(hi))
			removeOutsideLoop(&b, uint8(lo), uint8(hi))
			if a != b {
				t.Fatalf("removeOutside(%d,%d) diverges from loop", lo, hi)
			}
		}
	}
}

func TestDomainIntersect(t *testing.T) {
	a := fullDomain()
	a.removeOutside(10, 200)
	b := fullDomain()
	b.removeOutside(150, 255)
	a.intersect(&b)
	for v := 0; v < 256; v++ {
		want := v >= 150 && v <= 200
		if a.has(uint8(v)) != want {
			t.Fatalf("intersect: value %d presence = %v, want %v", v, a.has(uint8(v)), want)
		}
	}
	if a.count() != 51 {
		t.Fatalf("intersect: count = %d, want 51", a.count())
	}
}

// Microbench: word-mask removeOutside vs the 256-iteration loop.
func BenchmarkDomainRemoveOutside(b *testing.B) {
	b.Run("mask", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := fullDomain()
			d.removeOutside(uint8(i), uint8(i)|128)
		}
	})
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := fullDomain()
			removeOutsideLoop(&d, uint8(i), uint8(i)|128)
		}
	})
}
