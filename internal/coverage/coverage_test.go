package coverage

import (
	"encoding/json"
	"fmt"
	"testing"
	"testing/quick"
)

func TestSetGetCount(t *testing.T) {
	v := New(200)
	if v.Get(5) {
		t.Fatal("fresh vector should be empty")
	}
	if !v.Set(5) {
		t.Fatal("first set should report new")
	}
	if v.Set(5) {
		t.Fatal("second set should report not-new")
	}
	if !v.Get(5) || v.Count() != 1 {
		t.Fatal("get/count after set")
	}
	// Boundary bits.
	if !v.Set(0) || !v.Set(200) || !v.Set(63) || !v.Set(64) {
		t.Fatal("boundary sets")
	}
	if v.Count() != 5 {
		t.Fatalf("count = %d", v.Count())
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	v := New(10)
	if v.Set(-1) || v.Set(11) || v.Get(99) {
		t.Fatal("out-of-range bits must be ignored")
	}
}

func TestOrMerge(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(1)
	a.Set(2)
	b.Set(2)
	b.Set(3)
	added := a.Or(b)
	if added != 1 {
		t.Fatalf("added = %d, want 1 (only bit 3 is new)", added)
	}
	if a.Count() != 3 {
		t.Fatalf("count = %d", a.Count())
	}
	// OR is idempotent.
	if a.Or(b) != 0 {
		t.Fatal("second OR should add nothing")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := New(64)
	a.Set(7)
	c := a.Clone()
	c.Set(8)
	if a.Get(8) {
		t.Fatal("clone write leaked into original")
	}
	if !c.Get(7) {
		t.Fatal("clone lost original bit")
	}
}

func TestWordsRoundTrip(t *testing.T) {
	a := New(130)
	a.Set(0)
	a.Set(129)
	b := FromWords(a.Words(), 130)
	if !b.Get(0) || !b.Get(129) || b.Count() != 2 {
		t.Fatal("words round trip")
	}
}

func TestOrGrowsForLongerOther(t *testing.T) {
	small := New(10)
	small.Set(3)
	big := New(500)
	big.Set(3)
	big.Set(400)
	added := small.Or(big)
	if added != 1 {
		t.Fatalf("added = %d, want 1 (bit 400 must not be truncated)", added)
	}
	if !small.Get(400) || small.Count() != 2 {
		t.Fatalf("bit 400 lost: count=%d", small.Count())
	}
	if small.Len() != big.Len() {
		t.Fatalf("Len = %d, want %d after growth", small.Len(), big.Len())
	}
	// Idempotent after growth.
	if small.Or(big) != 0 {
		t.Fatal("second OR should add nothing")
	}
}

func TestWordsIsACopy(t *testing.T) {
	v := New(100)
	v.Set(1)
	w := v.Words()
	v.Set(2)
	if got := FromWords(w, 100).Count(); got != 1 {
		t.Fatalf("snapshot mutated under a later Set: count=%d, want 1", got)
	}
	w[0] = 0
	if !v.Get(1) {
		t.Fatal("writing the returned slice must not reach the vector")
	}
}

// coveredOf counts covered lines restricted to the given line set.
func coveredOf(v *BitVec, lines map[int]bool) int {
	c := 0
	for ln := range lines {
		if v.Get(ln) {
			c++
		}
	}
	return c
}

func TestCoveredOf(t *testing.T) {
	v := New(50)
	v.Set(10)
	v.Set(20)
	v.Set(30)
	lines := map[int]bool{10: true, 30: true, 40: true}
	if got := coveredOf(v, lines); got != 2 {
		t.Fatalf("coveredOf = %d, want 2", got)
	}
}

// Property: Count equals the number of distinct set bits; Or equals
// set union.
func TestQuickOrIsUnion(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := New(255), New(255)
		set := map[int]bool{}
		for _, x := range xs {
			a.Set(int(x))
			set[int(x)] = true
		}
		for _, y := range ys {
			b.Set(int(y))
			set[int(y)] = true
		}
		a.Or(b)
		return a.Count() == len(set)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrEachReportsExactDelta(t *testing.T) {
	v := New(200)
	v.Set(3)
	v.Set(130)
	other := New(200)
	for _, ln := range []int{3, 64, 130, 131, 199} {
		other.Set(ln)
	}
	var got []int
	added := v.OrEach(other, func(ln int) { got = append(got, ln) })
	if added != 3 {
		t.Fatalf("added = %d, want 3", added)
	}
	if fmt.Sprint(got) != "[64 131 199]" {
		t.Fatalf("delta lines = %v, want [64 131 199]", got)
	}
	for _, ln := range []int{3, 64, 130, 131, 199} {
		if !v.Get(ln) {
			t.Fatalf("line %d not set after OrEach", ln)
		}
	}
	// Re-merge: no new lines, callback never fires.
	if again := v.OrEach(other, func(ln int) { t.Fatalf("callback on re-merge: %d", ln) }); again != 0 {
		t.Fatalf("re-merge added %d", again)
	}
	// A longer operand grows the vector and still reports its bits.
	long := New(300)
	long.Set(260)
	got = nil
	if added := v.OrEach(long, func(ln int) { got = append(got, ln) }); added != 1 || fmt.Sprint(got) != "[260]" {
		t.Fatalf("grow merge: added=%d lines=%v", added, got)
	}
	if v.Len() != 301 || !v.Get(260) {
		t.Fatal("vector did not grow to cover the longer operand")
	}
}

// TestJSONRoundTrip: a vector survives its JSON form, and a form whose
// word count disagrees with its capacity — the bytes may come from the
// network — is refused instead of yielding a vector that indexes past
// its words.
func TestJSONRoundTrip(t *testing.T) {
	v := New(130)
	v.Set(0)
	v.Set(64)
	v.Set(130)
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var got BitVec
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Len() != v.Len() || got.Count() != 3 || !got.Get(130) || got.Get(129) {
		t.Fatalf("round trip changed the vector: %s -> len %d count %d", data, got.Len(), got.Count())
	}
	for _, bad := range []string{`{"N":130,"Words":[1]}`, `{"N":-1,"Words":[]}`, `{"N":0,"Words":[]}`, `[1,2]`} {
		if err := json.Unmarshal([]byte(bad), new(BitVec)); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}
