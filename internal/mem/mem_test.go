package mem

import (
	"sort"
	"testing"
	"testing/quick"

	"cloud9/internal/expr"
)

func newObj(t *testing.T, size int64) (*AddressSpace, *ObjectState) {
	t.Helper()
	alloc := NewAllocator(0x1000)
	obj := alloc.Allocate(size, "test")
	os := NewObjectState(obj)
	as := NewAddressSpace()
	as.Bind(os)
	return as, os
}

func TestConcreteReadWrite(t *testing.T) {
	_, os := newObj(t, 16)
	os.Write(0, expr.Const(0xdeadbeef, expr.W32))
	got := os.Read(0, expr.W32)
	if !got.IsConst() || got.ConstVal() != 0xdeadbeef {
		t.Fatalf("read back %v", got)
	}
	// Little-endian byte order.
	b0 := os.Read(0, expr.W8)
	if b0.ConstVal() != 0xef {
		t.Fatalf("byte 0 = %#x, want 0xef", b0.ConstVal())
	}
	b3 := os.Read(3, expr.W8)
	if b3.ConstVal() != 0xde {
		t.Fatalf("byte 3 = %#x, want 0xde", b3.ConstVal())
	}
}

func TestSymbolicReadWrite(t *testing.T) {
	_, os := newObj(t, 16)
	v := expr.Var(1, "in")
	os.PutByte(4, v)
	if os.IsFullyConcrete() {
		t.Fatal("object should have a symbolic byte")
	}
	got := os.Byte(4)
	if got != v {
		t.Fatalf("read back %v", got)
	}
	// Wide read mixing concrete and symbolic bytes.
	w := os.Read(4, expr.W16)
	var asg expr.Assignment
	asg.Set(1, 0x7f)
	val, ok := w.Eval(asg)
	if !ok || val != 0x007f {
		t.Fatalf("mixed read eval = %#x ok=%v", val, ok)
	}
	// Overwriting with a constant restores concreteness.
	os.PutByte(4, expr.Const(9, expr.W8))
	if !os.IsFullyConcrete() {
		t.Fatal("constant write should clear symbolic byte")
	}
}

func TestWideSymbolicRoundTrip(t *testing.T) {
	_, os := newObj(t, 16)
	word := expr.Concat(expr.Var(2, "hi"), expr.Var(1, "lo"))
	os.Write(0, word)
	back := os.Read(0, expr.W16)
	var asg expr.Assignment
	asg.Set(1, 0x34)
	asg.Set(2, 0x12)
	v, ok := back.Eval(asg)
	if !ok || v != 0x1234 {
		t.Fatalf("round trip = %#x ok=%v", v, ok)
	}
}

func TestConcreteBytesUnderAssignment(t *testing.T) {
	_, os := newObj(t, 4)
	os.PutByte(0, expr.Const('G', expr.W8))
	os.PutByte(1, expr.Var(7, "x"))
	var asg expr.Assignment
	asg.Set(7, 'E')
	bytes := os.ConcreteBytes(asg)
	if bytes[0] != 'G' || bytes[1] != 'E' {
		t.Fatalf("concretized = %q", bytes)
	}
}

func TestResolve(t *testing.T) {
	alloc := NewAllocator(0x1000)
	as := NewAddressSpace()
	o1 := NewObjectState(alloc.Allocate(16, "a"))
	o2 := NewObjectState(alloc.Allocate(32, "b"))
	as.Bind(o1)
	as.Bind(o2)

	got, off, ok := as.Resolve(o1.Obj.Base + 5)
	if !ok || got != o1 || off != 5 {
		t.Fatalf("resolve a+5: %v %d %v", got, off, ok)
	}
	got, off, ok = as.Resolve(o2.Obj.Base)
	if !ok || got != o2 || off != 0 {
		t.Fatalf("resolve b+0: %v %d %v", got, off, ok)
	}
	// Guard gap between objects must be unmapped.
	if _, _, ok := as.Resolve(o1.Obj.End()); ok {
		t.Fatal("one past end should be unmapped")
	}
	if _, _, ok := as.Resolve(0x0); ok {
		t.Fatal("null should be unmapped")
	}
}

func TestUnbind(t *testing.T) {
	alloc := NewAllocator(0x1000)
	as := NewAddressSpace()
	o := NewObjectState(alloc.Allocate(8, "x"))
	as.Bind(o)
	if got := as.Unbind(o.Obj.Base); got != o {
		t.Fatal("unbind returned wrong state")
	}
	if _, _, ok := as.Resolve(o.Obj.Base); ok {
		t.Fatal("resolved after unbind")
	}
	if as.Unbind(o.Obj.Base) != nil {
		t.Fatal("double unbind should return nil")
	}
}

func TestCopyOnWriteIsolation(t *testing.T) {
	alloc := NewAllocator(0x1000)
	as1 := NewAddressSpace()
	o := NewObjectState(alloc.Allocate(8, "x"))
	o.Write(0, expr.Const(1, expr.W64))
	as1.Bind(o)

	as2 := as1.Clone()
	// Write through as2: must not affect as1's view.
	os2, _, _ := as2.Resolve(o.Obj.Base)
	w := as2.Writable(os2)
	w.Write(0, expr.Const(2, expr.W64))

	v1, _, _ := as1.Resolve(o.Obj.Base)
	if got := v1.Read(0, expr.W64); got.ConstVal() != 1 {
		t.Fatalf("original space sees %d, want 1", got.ConstVal())
	}
	v2, _, _ := as2.Resolve(o.Obj.Base)
	if got := v2.Read(0, expr.W64); got.ConstVal() != 2 {
		t.Fatalf("cloned space sees %d, want 2", got.ConstVal())
	}
}

func TestCoWNoCopyWhenExclusive(t *testing.T) {
	alloc := NewAllocator(0x1000)
	as := NewAddressSpace()
	o := NewObjectState(alloc.Allocate(8, "x"))
	as.Bind(o)
	if w := as.Writable(o); w != o {
		t.Fatal("exclusive owner should not copy")
	}
}

func TestCoWCopiesSymbolicBytes(t *testing.T) {
	alloc := NewAllocator(0x1000)
	as1 := NewAddressSpace()
	o := NewObjectState(alloc.Allocate(8, "x"))
	o.PutByte(3, expr.Var(5, "s"))
	as1.Bind(o)
	as2 := as1.Clone()
	os2, _, _ := as2.Resolve(o.Obj.Base)
	w := as2.Writable(os2)
	w.PutByte(3, expr.Const(0, expr.W8))

	v1, _, _ := as1.Resolve(o.Obj.Base)
	if v1.Byte(3).IsConst() {
		t.Fatal("original lost its symbolic byte")
	}
}

func TestAllocatorDeterminism(t *testing.T) {
	a1 := NewAllocator(0x4000)
	a2 := NewAllocator(0x4000)
	for i := 0; i < 100; i++ {
		o1 := a1.Allocate(int64(i%37+1), "x")
		o2 := a2.Allocate(int64(i%37+1), "x")
		if o1.Base != o2.Base || o1.ID != o2.ID {
			t.Fatalf("allocation %d diverged: %#x vs %#x", i, o1.Base, o2.Base)
		}
	}
	// Clone continues the same sequence.
	c := a1.Clone()
	if a1.Allocate(8, "x").Base != c.Allocate(8, "x").Base {
		t.Fatal("clone diverged")
	}
}

func TestAllocatorGuardGaps(t *testing.T) {
	a := NewAllocator(0x1000)
	prev := a.Allocate(24, "p")
	next := a.Allocate(8, "n")
	if next.Base < prev.End()+1 {
		t.Fatalf("no guard gap: prev end %#x, next base %#x", prev.End(), next.Base)
	}
	if next.Base%allocAlign != 0 {
		t.Fatalf("unaligned base %#x", next.Base)
	}
}

func TestZeroSizeAllocation(t *testing.T) {
	a := NewAllocator(0x1000)
	o1 := a.Allocate(0, "z1")
	o2 := a.Allocate(0, "z2")
	if o1.Base == o2.Base {
		t.Fatal("zero-size allocations must get distinct addresses")
	}
}

// Property: for any width and offset, write-then-read round-trips.
func TestQuickReadWriteRoundTrip(t *testing.T) {
	f := func(val uint64, offSeed uint8, wSeed uint8) bool {
		widths := []expr.Width{expr.W8, expr.W16, expr.W32, expr.W64}
		w := widths[int(wSeed)%len(widths)]
		off := int64(offSeed % 8)
		alloc := NewAllocator(0x1000)
		os := NewObjectState(alloc.Allocate(16, "t"))
		os.Write(off, expr.Const(val, w))
		got := os.Read(off, w)
		return got.IsConst() && got.ConstVal() == val&w.Mask()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Resolve agrees with Contains for random addresses.
func TestQuickResolveConsistent(t *testing.T) {
	alloc := NewAllocator(0x1000)
	as := NewAddressSpace()
	var objs []*Object
	for i := 0; i < 20; i++ {
		o := alloc.Allocate(int64(i*7+1), "o")
		objs = append(objs, o)
		as.Bind(NewObjectState(o))
	}
	f := func(addrSeed uint16) bool {
		addr := 0x1000 + uint64(addrSeed)
		os, off, ok := as.Resolve(addr)
		var want *Object
		for _, o := range objs {
			if o.Contains(addr) {
				want = o
			}
		}
		if want == nil {
			return !ok
		}
		return ok && os.Obj == want && off == int64(addr-want.Base)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickIndexAgreesWithModel drives two sibling spaces (one cloned
// from the other, again and again) through random Bind, Unbind, Clone
// and Writable-then-write sequences and holds each, after every step, to
// a map-and-sort model: which objects it has, in which order, what
// Resolve answers at their edges, and the byte each holds — so a write or
// a Bind or an Unbind in one never shows in its sibling.
func TestQuickIndexAgreesWithModel(t *testing.T) {
	alloc := NewAllocator(0x1000)
	var pool []*Object
	for i := 0; i < 24; i++ {
		pool = append(pool, alloc.Allocate(int64(i%5+1), "o"))
	}
	type model map[uint64]byte // base of each bound object -> its first byte
	check := func(as *AddressSpace, m model) bool {
		var bases []uint64
		as.Objects(func(os *ObjectState) { bases = append(bases, os.Obj.Base) })
		if as.NumObjects() != len(m) || len(bases) != len(m) || !sort.SliceIsSorted(bases, func(i, j int) bool { return bases[i] < bases[j] }) {
			return false
		}
		for _, o := range pool {
			want, bound := m[o.Base]
			for _, addr := range []uint64{o.Base, o.End() - 1} {
				os, off, ok := as.Resolve(addr)
				if ok != bound || ok && (os.Obj != o || off != int64(addr-o.Base) || byte(os.Byte(0).ConstVal()) != want) {
					return false
				}
			}
			if _, _, ok := as.Resolve(o.End()); ok {
				return false // the guard gap after every object is unmapped
			}
		}
		return true
	}
	f := func(ops []uint16) (ok bool) {
		spaces := [2]*AddressSpace{NewAddressSpace(), NewAddressSpace()}
		models := [2]model{{}, {}}
		for _, op := range ops {
			x := int(op >> 15)
			as, m, o := spaces[x], models[x], pool[int(op>>2)%len(pool)]
			_, bound := m[o.Base]
			switch op & 3 {
			case 0:
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					as.Bind(NewObjectState(o))
					return
				}()
				if panicked != bound {
					return false
				}
				if !bound {
					m[o.Base] = 0
				}
			case 1:
				if o.Size > 1 && as.Unbind(o.Base+1) != nil {
					return false // not a base address
				}
				os := as.Unbind(o.Base)
				if (os != nil) != bound || bound && os.Obj != o {
					return false
				}
				if bound {
					os.Unref()
					delete(m, o.Base)
				}
			case 2:
				spaces[1-x].Release()
				spaces[1-x], models[1-x] = as.Clone(), model{}
				for b, v := range m {
					models[1-x][b] = v
				}
			case 3:
				if os, _, ok := as.Resolve(o.Base); ok {
					as.Writable(os).PutByte(0, expr.Const(uint64(op>>7), expr.W8))
					m[o.Base] = byte(op >> 7)
				}
			}
			if !check(spaces[0], models[0]) || !check(spaces[1], models[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCloneSpace(b *testing.B) {
	alloc := NewAllocator(0x1000)
	as := NewAddressSpace()
	for i := 0; i < 100; i++ {
		as.Bind(NewObjectState(alloc.Allocate(64, "o")))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := as.Clone()
		c.Release()
	}
}

func BenchmarkReadWrite(b *testing.B) {
	alloc := NewAllocator(0x1000)
	os := NewObjectState(alloc.Allocate(64, "o"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		os.Write(int64(i%8)*8, expr.Const(uint64(i), expr.W64))
		os.Read(int64(i%8)*8, expr.W64)
	}
}

// Any interleaving of Skip and Allocate hands out the addresses and ids
// of Allocate alone: a promoted stack slot moves nothing that follows it.
func TestSkipMatchesAllocate(t *testing.T) {
	f := func(ops []uint16) bool {
		mixed, alone := NewAllocator(0x10000), NewAllocator(0x10000)
		for _, op := range ops {
			size := int64(op>>1) % 70 // 0 included: it still takes an address
			want := alone.Allocate(size, "x")
			if op&1 == 1 {
				mixed.Skip(size)
			} else if got := mixed.Allocate(size, "x"); *got != *want {
				t.Logf("after a skip: %+v, alone: %+v", got, want)
				return false
			}
			if *mixed != *alone {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// slotExpr builds an expression of width w from prog, two bytes an op,
// on a stack: variables and constants, extensions, concats, arithmetic,
// comparisons and extracts, so every node kind Write splits and Read
// re-joins turns up.
func slotExpr(prog []byte, w expr.Width) *expr.Expr {
	widths := []expr.Width{expr.W8, expr.W16, expr.W32, expr.W64}
	stack := []*expr.Expr{}
	push := func(e *expr.Expr) { stack = append(stack, e) }
	for ; len(prog) >= 2; prog = prog[2:] {
		op, arg := prog[0]%8, prog[1]
		if op > 1 && len(stack) == 0 {
			continue
		}
		top := len(stack) - 1
		switch op {
		case 0:
			push(expr.Var(uint64(arg%4), "v"))
		case 1:
			push(expr.Const(uint64(arg), expr.W8))
		case 2:
			stack[top] = expr.ZExt(stack[top], widths[arg%4])
		case 3:
			stack[top] = expr.SExt(stack[top], widths[arg%4])
		case 4:
			if top > 0 {
				switch stack[top].Width() + stack[top-1].Width() {
				case expr.W16, expr.W32, expr.W64:
					stack = append(stack[:top-1], expr.Concat(stack[top], stack[top-1]))
				}
			}
		case 5:
			if top > 0 && stack[top].Width() == stack[top-1].Width() {
				ops := []expr.Op{expr.OpAdd, expr.OpXor, expr.OpMul, expr.OpAnd}
				stack = append(stack[:top-1], expr.Binary(ops[arg%4], stack[top-1], stack[top]))
			}
		case 6:
			stack[top] = expr.Eq(stack[top], expr.Const(uint64(arg), stack[top].Width()))
		case 7:
			if n := stack[top].Width().Bytes(); stack[top].Width() != expr.W1 {
				stack[top] = expr.Extract(stack[top], uint(8*(int(arg)%n)), expr.W8)
			}
		}
	}
	e := expr.Const(0, expr.W8)
	if len(stack) > 0 {
		e = stack[len(stack)-1]
	}
	switch {
	case e.Width() == w:
	case w == expr.W1:
		e = expr.Ne(e, expr.Const(0, e.Width()))
	case e.Width() == expr.W1:
		e = expr.ZExt(e, w)
	case e.Width() < w:
		e = expr.SExt(e, w)
	default:
		e = expr.Extract(e, 0, w)
	}
	return e
}

// FuzzSlotRoundTrip: what a promoted slot's register holds after a store
// is the very node a load after the store reads back from a fresh
// object — pointer-equal, since the solver's caches key on identity.
func FuzzSlotRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0x5a, 2, 2}, uint8(2))                // a constant
	f.Add([]byte{0, 1}, uint8(1))                         // a byte variable
	f.Add([]byte{0, 1, 2, 2}, uint8(3))                   // ZExt
	f.Add([]byte{0, 1, 3, 3}, uint8(4))                   // SExt
	f.Add([]byte{0, 1, 0, 2, 4, 0}, uint8(2))             // a Concat of two variables
	f.Add([]byte{0, 1, 6, 7}, uint8(0))                   // a width-1 value
	f.Add([]byte{0, 1, 3, 2, 0, 2, 2, 2, 5, 0}, uint8(3)) // sext(v1) + zext(v2)
	f.Fuzz(func(t *testing.T, prog []byte, wSeed uint8) {
		widths := []expr.Width{expr.W1, expr.W8, expr.W16, expr.W32, expr.W64}
		e := slotExpr(prog, widths[int(wSeed)%len(widths)])
		os := NewObjectState(NewAllocator(0x1000).Allocate(8, "slot"))
		os.Write(0, e)
		want := os.Read(0, e.Width())
		if got := StoredValue(e); got != want {
			t.Fatalf("StoredValue(%v) = %v, a store and a load yield %v", e, got, want)
		}
	})
}
