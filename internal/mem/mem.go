// Package mem implements the symbolic memory model: memory objects with
// byte-granular concrete/symbolic contents, copy-on-write object states
// shared between forked execution states, address spaces, and the
// deterministic per-state allocator that Cloud9 introduced to keep path
// replay byte-identical across workers (§6 "Broken Replays").
package mem

import (
	"fmt"

	"cloud9/internal/expr"
)

// Object is the immutable identity of an allocation: its virtual base
// address and size. The mutable contents live in ObjectState.
type Object struct {
	ID     uint64
	Base   uint64
	Size   int64
	Name   string // diagnostics: "global foo", "frame main", "heap"
	Shared bool   // lives in the state-wide CoW domain (cloud9_make_shared)
}

// End returns one past the last valid address of the object.
func (o *Object) End() uint64 { return o.Base + uint64(o.Size) }

// Contains reports whether addr falls inside the object.
func (o *Object) Contains(addr uint64) bool {
	return addr >= o.Base && addr < o.End()
}

// ObjectState is the contents of one object, copy-on-write shared
// between execution states. A nil entry in symbolic means the byte is
// concrete (in concrete[i]); otherwise the expression is authoritative.
type ObjectState struct {
	Obj      *Object
	refs     int
	concrete []byte
	symbolic []*expr.Expr // lazily allocated
}

// NewObjectState allocates fresh zeroed contents for obj.
func NewObjectState(obj *Object) *ObjectState {
	return &ObjectState{Obj: obj, refs: 1, concrete: make([]byte, obj.Size)}
}

// InitConcrete copies data into the object starting at offset 0.
func (os *ObjectState) InitConcrete(data []byte) {
	copy(os.concrete, data)
}

// Ref increments the CoW reference count.
func (os *ObjectState) Ref() *ObjectState {
	os.refs++
	return os
}

// Unref decrements the CoW reference count.
func (os *ObjectState) Unref() { os.refs-- }

// copyForWrite returns a privately owned copy when shared.
func (os *ObjectState) copyForWrite() *ObjectState {
	if os.refs == 1 {
		return os
	}
	os.refs--
	dup := &ObjectState{Obj: os.Obj, refs: 1, concrete: make([]byte, len(os.concrete))}
	copy(dup.concrete, os.concrete)
	if os.symbolic != nil {
		dup.symbolic = make([]*expr.Expr, len(os.symbolic))
		copy(dup.symbolic, os.symbolic)
	}
	return dup
}

// Byte returns the byte at off as an expression.
func (os *ObjectState) Byte(off int64) *expr.Expr {
	if os.symbolic != nil && os.symbolic[off] != nil {
		return os.symbolic[off]
	}
	return expr.Const(uint64(os.concrete[off]), expr.W8)
}

// PutByte stores an 8-bit expression at off. The caller must own the
// object state (obtained via AddressSpace.Writable).
func (os *ObjectState) PutByte(off int64, e *expr.Expr) {
	if e.Width() != expr.W8 {
		panic("mem: PutByte with non-byte expression")
	}
	if e.IsConst() {
		os.concrete[off] = byte(e.ConstVal())
		if os.symbolic != nil {
			os.symbolic[off] = nil
		}
		return
	}
	if os.symbolic == nil {
		os.symbolic = make([]*expr.Expr, len(os.concrete))
	}
	os.symbolic[off] = e
}

// Read assembles a little-endian value of width w starting at off.
// Bytes combine as a balanced concat tree (widths stay powers of two).
func (os *ObjectState) Read(off int64, w expr.Width) *expr.Expr {
	if w == expr.W1 {
		return expr.Ne(os.Byte(off), expr.Const(0, expr.W8))
	}
	return os.readTree(off, w.Bytes())
}

func (os *ObjectState) readTree(off int64, n int) *expr.Expr {
	if n == 1 {
		return os.Byte(off)
	}
	half := n / 2
	lo := os.readTree(off, half)
	hi := os.readTree(off+int64(half), half)
	return expr.Concat(hi, lo)
}

// Write stores e at off little-endian, splitting into byte expressions.
func (os *ObjectState) Write(off int64, e *expr.Expr) {
	w := e.Width()
	if w == expr.W1 {
		e = expr.ZExt(e, expr.W8)
		w = expr.W8
	}
	n := w.Bytes()
	for i := 0; i < n; i++ {
		os.PutByte(off+int64(i), expr.Extract(e, uint(8*i), expr.W8))
	}
}

// StoredValue returns the node a Read of e's width yields once e has
// been written to a zeroed object: what a stack slot promoted to a
// register holds after a store of e. Constants and bytes come back as
// themselves; a wider value comes back as its byte extracts re-joined by
// Read's concat tree, which is not always the node that went in.
func StoredValue(e *expr.Expr) *expr.Expr {
	w := e.Width()
	switch {
	case w == expr.W1:
		return expr.Ne(expr.ZExt(e, expr.W8), expr.Const(0, expr.W8))
	case w == expr.W8 || e.IsConst():
		return e
	}
	return storedTree(e, 0, w.Bytes())
}

func storedTree(e *expr.Expr, off, n int) *expr.Expr {
	if n == 1 {
		return expr.Extract(e, uint(8*off), expr.W8)
	}
	half := n / 2
	lo := storedTree(e, off, half)
	hi := storedTree(e, off+half, half)
	return expr.Concat(hi, lo)
}

// IsFullyConcrete reports whether no byte of the object is symbolic.
func (os *ObjectState) IsFullyConcrete() bool {
	for _, s := range os.symbolic {
		if s != nil {
			return false
		}
	}
	return true
}

// ConcreteBytes returns the concrete contents under a, using the
// assignment to concretize symbolic bytes (missing vars read as 0).
func (os *ObjectState) ConcreteBytes(a expr.Assignment) []byte {
	out := make([]byte, len(os.concrete))
	copy(out, os.concrete)
	for i, s := range os.symbolic {
		if s != nil {
			v, _ := s.Eval(a)
			out[i] = byte(v)
		}
	}
	return out
}

// Allocator issues deterministic virtual addresses. Each execution state
// owns one; forked states copy it, so identical paths allocate identical
// addresses regardless of which worker replays them.
type Allocator struct {
	next   uint64
	nextID uint64
}

// Alignment and inter-object guard gap. The gap guarantees that
// off-by-one accesses land in unmapped space and are caught.
const (
	allocAlign = 16
	allocGuard = 32
)

// NewAllocator returns an allocator starting at base.
func NewAllocator(base uint64) *Allocator {
	return &Allocator{next: base, nextID: 1}
}

// Clone returns an independent copy (same future address sequence).
func (a *Allocator) Clone() *Allocator {
	dup := *a
	return &dup
}

// Allocate reserves an address range and returns the new object.
func (a *Allocator) Allocate(size int64, name string) *Object {
	if size <= 0 {
		size = 1 // zero-sized allocations still get a distinct address
	}
	obj := &Object{ID: a.nextID, Base: a.next, Size: size, Name: name}
	a.Skip(size)
	return obj
}

// Skip advances the allocator as Allocate(size, ...) does, building no
// object: a stack slot promoted to a register still takes its id and its
// addresses, so every later allocation lands where it always did.
func (a *Allocator) Skip(size int64) {
	if size <= 0 {
		size = 1
	}
	a.nextID++
	span := uint64(size) + allocGuard
	span += allocAlign - 1
	span -= span % allocAlign
	a.next += span
}

// AddressSpace maps addresses to object states: one slice sorted by
// base, binary-searched by every lookup. Cloning copies the slice and
// shares the object states copy-on-write; the refcounts stay because a
// state's death (Release) must give a surviving sibling back the right
// to write in place.
type AddressSpace struct {
	objs []*ObjectState
}

// NewAddressSpace returns an empty space.
func NewAddressSpace() *AddressSpace { return &AddressSpace{} }

// Clone returns a CoW copy of the space.
func (as *AddressSpace) Clone() *AddressSpace {
	dup := &AddressSpace{objs: make([]*ObjectState, len(as.objs))}
	copy(dup.objs, as.objs)
	for _, os := range dup.objs {
		os.Ref()
	}
	return dup
}

// Release drops the space's references (called when a state dies).
func (as *AddressSpace) Release() {
	for _, os := range as.objs {
		os.Unref()
	}
}

// search returns the index of the first object whose base is above addr.
func (as *AddressSpace) search(addr uint64) int {
	lo, hi := 0, len(as.objs)
	for lo < hi {
		mid := (lo + hi) / 2
		if as.objs[mid].Obj.Base <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Bind inserts a fresh object state into the space.
func (as *AddressSpace) Bind(os *ObjectState) {
	base := os.Obj.Base
	i := as.search(base)
	if i > 0 && as.objs[i-1].Obj.Base == base {
		panic(fmt.Sprintf("mem: duplicate binding at %#x", base))
	}
	as.objs = append(as.objs, nil)
	copy(as.objs[i+1:], as.objs[i:])
	as.objs[i] = os
}

// Unbind removes the object based at base and returns its state (nil
// when no object starts there).
func (as *AddressSpace) Unbind(base uint64) *ObjectState {
	i := as.search(base) - 1
	if i < 0 || as.objs[i].Obj.Base != base {
		return nil
	}
	os := as.objs[i]
	as.objs = append(as.objs[:i], as.objs[i+1:]...)
	return os
}

// Resolve finds the object containing addr. ok=false means unmapped
// (a memory error in the program under test).
func (as *AddressSpace) Resolve(addr uint64) (*ObjectState, int64, bool) {
	i := as.search(addr) - 1
	if i < 0 || !as.objs[i].Obj.Contains(addr) {
		return nil, 0, false
	}
	os := as.objs[i]
	return os, int64(addr - os.Obj.Base), true
}

// Writable returns a privately owned state for os, an object state of
// this space, replacing the space's reference if CoW demanded a copy.
func (as *AddressSpace) Writable(os *ObjectState) *ObjectState {
	w := os.copyForWrite()
	if w != os {
		as.objs[as.search(os.Obj.Base)-1] = w
	}
	return w
}

// NumObjects returns the number of bound objects.
func (as *AddressSpace) NumObjects() int { return len(as.objs) }

// Objects calls fn for each bound object state, in address order.
func (as *AddressSpace) Objects(fn func(*ObjectState)) {
	for _, os := range as.objs {
		fn(os)
	}
}
