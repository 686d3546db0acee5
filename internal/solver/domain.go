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

func (d *domain) has(v uint8) bool {
	return d.bits[v>>6]&(1<<(v&63)) != 0
}

func (d *domain) add(v uint8) {
	d.bits[v>>6] |= 1 << (v & 63)
}

func (d *domain) remove(v uint8) {
	d.bits[v>>6] &^= 1 << (v & 63)
}

// rangeMask returns the 256-bit set {lo..hi} built from word masks:
// full words between the endpoints, partial edge words shaped by a
// shift. Constant-time, no per-value loop.
func rangeMask(lo, hi uint8) domain {
	var d domain
	lw, hw := int(lo>>6), int(hi>>6)
	for w := lw; w <= hw; w++ {
		d.bits[w] = ^uint64(0)
	}
	d.bits[lw] &= ^uint64(0) << (lo & 63)
	d.bits[hw] &= ^uint64(0) >> (63 - (hi & 63))
	return d
}

// removeOutside intersects the domain with {lo..hi}.
func (d *domain) removeOutside(lo, hi uint8) {
	m := rangeMask(lo, hi)
	d.bits[0] &= m.bits[0]
	d.bits[1] &= m.bits[1]
	d.bits[2] &= m.bits[2]
	d.bits[3] &= m.bits[3]
}

// removeRange removes {lo..hi} from the domain.
func (d *domain) removeRange(lo, hi uint8) {
	m := rangeMask(lo, hi)
	d.bits[0] &^= m.bits[0]
	d.bits[1] &^= m.bits[1]
	d.bits[2] &^= m.bits[2]
	d.bits[3] &^= m.bits[3]
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

// singleton reports whether the domain holds exactly one value.
func (d *domain) singleton() (uint8, bool) {
	v, ok := d.first()
	if !ok {
		return 0, false
	}
	if _, more := d.next(v); more {
		return 0, false
	}
	return v, true
}
