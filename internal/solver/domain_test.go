package solver

import "testing"

func (d *domain) has(v uint8) bool {
	return d.bits[v>>6]&(1<<(v&63)) != 0
}

// rangeDomain returns {lo..hi}.
func rangeDomain(lo, hi int) domain {
	var d domain
	for v := lo; v <= hi; v++ {
		d.add(uint8(v))
	}
	return d
}

func TestDomainIntersect(t *testing.T) {
	a := rangeDomain(10, 200)
	b := rangeDomain(150, 255)
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
