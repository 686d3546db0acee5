package solver

import "math/bits"

// domain is the set of candidate values for one symbolic byte, as a
// 256-bit set.
type domain struct {
	bits [4]uint64
}

func fullDomain() domain {
	return domain{bits: [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}}
}

func (d *domain) add(v uint8) {
	d.bits[v>>6] |= 1 << (v & 63)
}

// intersect keeps only the values present in both domains.
func (d *domain) intersect(o *domain) {
	d.bits[0] &= o.bits[0]
	d.bits[1] &= o.bits[1]
	d.bits[2] &= o.bits[2]
	d.bits[3] &= o.bits[3]
}

// union adds every value of o.
func (d *domain) union(o *domain) {
	d.bits[0] |= o.bits[0]
	d.bits[1] |= o.bits[1]
	d.bits[2] |= o.bits[2]
	d.bits[3] |= o.bits[3]
}

// subtract removes every value of o.
func (d *domain) subtract(o *domain) {
	d.bits[0] &^= o.bits[0]
	d.bits[1] &^= o.bits[1]
	d.bits[2] &^= o.bits[2]
	d.bits[3] &^= o.bits[3]
}

func (d *domain) count() int {
	return bits.OnesCount64(d.bits[0]) + bits.OnesCount64(d.bits[1]) +
		bits.OnesCount64(d.bits[2]) + bits.OnesCount64(d.bits[3])
}

func (d *domain) empty() bool {
	return d.bits[0]|d.bits[1]|d.bits[2]|d.bits[3] == 0
}

// appendValues appends the domain's values to dst in ascending order.
func (d *domain) appendValues(dst []uint8) []uint8 {
	for w, word := range d.bits {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, uint8(w*64+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// first returns the smallest value in the domain; ok=false when empty.
func (d *domain) first() (uint8, bool) {
	for w := 0; w < 4; w++ {
		if d.bits[w] != 0 {
			return uint8(w*64 + bits.TrailingZeros64(d.bits[w])), true
		}
	}
	return 0, false
}

// next returns the smallest value strictly greater than v; ok=false when
// no such value exists.
func (d *domain) next(v uint8) (uint8, bool) {
	if v == 255 {
		return 0, false
	}
	v++
	w := int(v >> 6)
	rem := d.bits[w] & (^uint64(0) << (v & 63))
	for {
		if rem != 0 {
			return uint8(w*64 + bits.TrailingZeros64(rem)), true
		}
		w++
		if w == 4 {
			return 0, false
		}
		rem = d.bits[w]
	}
}
