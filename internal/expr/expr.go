// Expression node representation and smart constructors. Package
// documentation lives in doc.go; hash-consing machinery in intern.go.
package expr

import (
	"fmt"
	"strings"
)

// Width is the bit width of an expression.
type Width uint8

// Supported widths. W1 is the boolean width produced by comparisons.
const (
	W1  Width = 1
	W8  Width = 8
	W16 Width = 16
	W32 Width = 32
	W64 Width = 64
)

// Mask returns the bit mask selecting the low w bits.
func (w Width) Mask() uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// Bytes returns the width in bytes (1 for booleans).
func (w Width) Bytes() int {
	if w <= 8 {
		return 1
	}
	return int(w / 8)
}

// Op identifies an expression operator.
type Op uint8

// Expression operators.
const (
	OpConst Op = iota
	OpVar
	// Binary arithmetic/bitwise (operand widths equal, result same width).
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpSDiv
	OpURem
	OpSRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr
	// Comparisons (operand widths equal, result W1).
	OpEq
	OpUlt
	OpUle
	OpSlt
	OpSle
	// Boolean connectives (operands W1, result W1).
	OpNot
	OpLAnd
	OpLOr
	// Structure.
	OpConcat  // hi ++ lo
	OpExtract // low `off` offset, `width` bits
	OpZExt
	OpSExt
	OpIte // if cond then a else b
)

var opNames = [...]string{
	OpConst: "const", OpVar: "var",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpUDiv: "udiv", OpSDiv: "sdiv",
	OpURem: "urem", OpSRem: "srem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpEq: "eq", OpUlt: "ult", OpUle: "ule", OpSlt: "slt", OpSle: "sle",
	OpNot: "not", OpLAnd: "land", OpLOr: "lor",
	OpConcat: "concat", OpExtract: "extract", OpZExt: "zext", OpSExt: "sext",
	OpIte: "ite",
}

// String returns the lowercase mnemonic for the operator.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Expr is an immutable bit-vector expression node. Nodes are hash-consed:
// the constructors intern every node in a global table (see intern.go), so
// structurally equal expressions are pointer-identical, and each node
// carries its structural hash, node count, and free-variable summary
// stamped at construction.
//
// The zero value is not a valid expression; use the constructors.
type Expr struct {
	op    Op
	width Width
	val   uint64 // OpConst: value; OpVar: variable id; OpExtract: bit offset
	name  string // OpVar only: symbolic name
	kids  []*Expr

	// Stamped by intern() at construction; immutable afterwards.
	hash uint64  // structural hash (see Hash)
	size uint32  // occurrence-counted node count, saturating (see Size)
	vars *VarSet // free-variable summary, shared across nodes
}

// Op returns the node operator.
func (e *Expr) Op() Op { return e.op }

// Width returns the expression's bit width.
func (e *Expr) Width() Width { return e.width }

// IsConst reports whether e is a constant.
func (e *Expr) IsConst() bool { return e.op == OpConst }

// IsVar reports whether e is a symbolic variable.
func (e *Expr) IsVar() bool { return e.op == OpVar }

// ConstVal returns the constant value; it panics if e is not a constant.
func (e *Expr) ConstVal() uint64 {
	if e.op != OpConst {
		panic("expr: ConstVal on non-constant")
	}
	return e.val
}

// VarID returns the variable identifier; it panics if e is not a variable.
func (e *Expr) VarID() uint64 {
	if e.op != OpVar {
		panic("expr: VarID on non-variable")
	}
	return e.val
}

// ExtractOff returns the bit offset of an OpExtract node.
func (e *Expr) ExtractOff() uint { return uint(e.val) }

// Kid returns the i-th operand child.
func (e *Expr) Kid(i int) *Expr { return e.kids[i] }

// IsTrue reports whether e is the constant true (width-1 value 1).
func (e *Expr) IsTrue() bool { return e.op == OpConst && e.width == W1 && e.val == 1 }

// IsFalse reports whether e is the constant false (width-1 value 0).
func (e *Expr) IsFalse() bool { return e.op == OpConst && e.width == W1 && e.val == 0 }

// small constant cache: the overwhelming majority of constants in real
// programs are small; interning them removes most allocation traffic.
const smallConstMax = 256

var smallConsts [5][smallConstMax]*Expr // indexed by width class
var boolConsts [2]*Expr

func widthClass(w Width) int {
	switch w {
	case W1:
		return 0
	case W8:
		return 1
	case W16:
		return 2
	case W32:
		return 3
	case W64:
		return 4
	}
	panic(fmt.Sprintf("expr: unsupported width %d", w))
}

func init() {
	for _, w := range []Width{W1, W8, W16, W32, W64} {
		c := widthClass(w)
		n := smallConstMax
		if w == W1 {
			n = 2
		}
		for v := 0; v < n; v++ {
			smallConsts[c][v] = intern(OpConst, w, uint64(v), "")
		}
	}
	boolConsts[0] = smallConsts[0][0]
	boolConsts[1] = smallConsts[0][1]
}

// Const returns the constant v truncated to width w.
func Const(v uint64, w Width) *Expr {
	v &= w.Mask()
	if v < smallConstMax {
		if e := smallConsts[widthClass(w)][v]; e != nil {
			return e
		}
	}
	return intern(OpConst, w, v, "")
}

// True is the width-1 constant 1.
func True() *Expr { return boolConsts[1] }

// False is the width-1 constant 0.
func False() *Expr { return boolConsts[0] }

// Bool returns True() or False().
func Bool(b bool) *Expr {
	if b {
		return True()
	}
	return False()
}

// Var returns the canonical node for symbolic byte variable id. All
// symbolic variables are byte-wide; the engine builds wider values with
// Concat. name is used for diagnostics and test-case rendering and
// participates in node identity.
func Var(id uint64, name string) *Expr {
	return intern(OpVar, W8, id, name)
}

func signExtend(v uint64, w Width) int64 {
	shift := 64 - uint(w)
	return int64(v<<shift) >> shift
}

// The structural operators' values, shared by Eval and the lane loops:
// hi ++ lo with lo lw bits wide, bits [off, off+w) of v with m the mask
// of w, and v sign-extended from kw bits and truncated to m.
func concatBits(hi, lo uint64, lw Width) uint64 { return hi<<lw | lo }
func extractBits(v, off, m uint64) uint64       { return (v >> off) & m }
func sextBits(v uint64, kw Width, m uint64) uint64 {
	return uint64(signExtend(v, kw)) & m
}

// SignedConst interprets v (already truncated to w) as a signed value.
func SignedConst(v uint64, w Width) int64 { return signExtend(v, w) }

func foldBin(op Op, a, b uint64, w Width) (uint64, bool) {
	m := w.Mask()
	a &= m
	b &= m
	switch op {
	case OpAdd:
		return binAdd(a, b, m), true
	case OpSub:
		return binSub(a, b, m), true
	case OpMul:
		return binMul(a, b, m), true
	case OpUDiv:
		return binUDiv(a, b, m)
	case OpSDiv:
		return binSDiv(a, b, w, m)
	case OpURem:
		return binURem(a, b, m)
	case OpSRem:
		return binSRem(a, b, w, m)
	case OpAnd:
		return binAnd(a, b), true
	case OpOr:
		return binOr(a, b), true
	case OpXor:
		return binXor(a, b), true
	case OpShl:
		return binShl(a, b, w, m), true
	case OpLShr:
		return binLShr(a, b, w, m), true
	case OpAShr:
		return binAShr(a, b, w, m), true
	case OpEq:
		return binEq(a, b), true
	case OpUlt:
		return binUlt(a, b), true
	case OpUle:
		return binUle(a, b), true
	case OpSlt:
		return binSlt(a, b, w), true
	case OpSle:
		return binSle(a, b, w), true
	}
	return 0, false
}

// The binary operators' semantics, one function each, shared by foldBin
// (and so by Eval and the constructors' folding) and by the lane loops
// (lanes.go). Operands are already truncated to w, and m is w.Mask().
// Division and remainder report false for a zero divisor; a shift by w
// or more shifts every bit out (ashr: fills with the sign).

func binAdd(a, b, m uint64) uint64 { return (a + b) & m }
func binSub(a, b, m uint64) uint64 { return (a - b) & m }
func binMul(a, b, m uint64) uint64 { return (a * b) & m }

func binUDiv(a, b, m uint64) (uint64, bool) {
	if b == 0 {
		return 0, false
	}
	return (a / b) & m, true
}

func binSDiv(a, b uint64, w Width, m uint64) (uint64, bool) {
	if b == 0 {
		return 0, false
	}
	return uint64(signExtend(a, w)/signExtend(b, w)) & m, true
}

func binURem(a, b, m uint64) (uint64, bool) {
	if b == 0 {
		return 0, false
	}
	return (a % b) & m, true
}

func binSRem(a, b uint64, w Width, m uint64) (uint64, bool) {
	if b == 0 {
		return 0, false
	}
	return uint64(signExtend(a, w)%signExtend(b, w)) & m, true
}

func binAnd(a, b uint64) uint64 { return a & b }
func binOr(a, b uint64) uint64  { return a | b }
func binXor(a, b uint64) uint64 { return a ^ b }

func binShl(a, b uint64, w Width, m uint64) uint64 {
	if b >= uint64(w) {
		return 0
	}
	return (a << b) & m
}

func binLShr(a, b uint64, w Width, m uint64) uint64 {
	if b >= uint64(w) {
		return 0
	}
	return (a >> b) & m
}

func binAShr(a, b uint64, w Width, m uint64) uint64 {
	if b >= uint64(w) {
		b = uint64(w) - 1
	}
	return uint64(signExtend(a, w)>>b) & m
}

func binEq(a, b uint64) uint64  { return b2u(a == b) }
func binUlt(a, b uint64) uint64 { return b2u(a < b) }
func binUle(a, b uint64) uint64 { return b2u(a <= b) }

func binSlt(a, b uint64, w Width) uint64 { return b2u(signExtend(a, w) < signExtend(b, w)) }
func binSle(a, b uint64, w Width) uint64 { return b2u(signExtend(a, w) <= signExtend(b, w)) }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func isCommutative(op Op) bool {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq:
		return true
	}
	return false
}

func newBin(op Op, w Width, l, r *Expr) *Expr {
	return intern(op, w, 0, "", l, r)
}

// Binary builds a binary operation with canonicalization and folding.
// For comparison ops the result has width W1; otherwise the operands'
// width. Operand widths must match.
func Binary(op Op, l, r *Expr) *Expr {
	if l.width != r.width {
		panic(fmt.Sprintf("expr: width mismatch in %v: %d vs %d", op, l.width, r.width))
	}
	w := l.width
	resW := w
	switch op {
	case OpEq, OpUlt, OpUle, OpSlt, OpSle:
		resW = W1
	}
	if l.op == OpConst && r.op == OpConst {
		if v, ok := foldBin(op, l.val, r.val, w); ok {
			return Const(v, resW)
		}
	}
	// Canonical order: constants on the left for commutative ops
	// (KLEE convention), which concentrates rewrite rules.
	if isCommutative(op) && r.op == OpConst && l.op != OpConst {
		l, r = r, l
	}
	if e := simplifyBin(op, w, resW, l, r); e != nil {
		return e
	}
	return newBin(op, resW, l, r)
}

// simplifyBin applies algebraic identities; returns nil when no rule fires.
func simplifyBin(op Op, w, resW Width, l, r *Expr) *Expr {
	lc := l.op == OpConst
	switch op {
	case OpAdd:
		if lc && l.val == 0 {
			return r
		}
		// (add c1 (add c2 x)) -> (add (c1+c2) x)
		if lc && r.op == OpAdd && r.kids[0].op == OpConst {
			return Binary(OpAdd, Const(l.val+r.kids[0].val, w), r.kids[1])
		}
	case OpSub:
		if r.op == OpConst && r.val == 0 {
			return l
		}
		if l == r {
			return Const(0, w)
		}
		// x - c -> (-c) + x, normalizing subtraction into addition.
		if r.op == OpConst {
			return Binary(OpAdd, Const(-r.val, w), l)
		}
	case OpMul:
		if lc {
			switch l.val {
			case 0:
				return Const(0, w)
			case 1:
				return r
			}
		}
	case OpAnd:
		if lc {
			if l.val == 0 {
				return Const(0, w)
			}
			if l.val == w.Mask() {
				return r
			}
		}
		if l == r {
			return l
		}
	case OpOr:
		if lc {
			if l.val == 0 {
				return r
			}
			if l.val == w.Mask() {
				return Const(w.Mask(), w)
			}
		}
		if l == r {
			return l
		}
	case OpXor:
		if lc && l.val == 0 {
			return r
		}
		if l == r {
			return Const(0, w)
		}
	case OpShl, OpLShr, OpAShr:
		if r.op == OpConst && r.val == 0 {
			return l
		}
		if l.op == OpConst && l.val == 0 {
			return Const(0, w)
		}
	case OpUDiv:
		if r.op == OpConst && r.val == 1 {
			return l
		}
	case OpEq:
		if l == r {
			return True()
		}
		if w == W1 && lc {
			// (eq true x) -> x ; (eq false x) -> (not x)
			if l.val == 1 {
				return r
			}
			return Not(r)
		}
		// (eq c1 (add c2 x)) -> (eq (c1-c2) x)
		if lc && r.op == OpAdd && r.kids[0].op == OpConst {
			return Binary(OpEq, Const(l.val-r.kids[0].val, w), r.kids[1])
		}
		// (eq c (zext x)) -> false when c exceeds x's range, else (eq c' x)
		if lc && r.op == OpZExt {
			inner := r.kids[0]
			if l.val > inner.width.Mask() {
				return False()
			}
			return Binary(OpEq, Const(l.val, inner.width), inner)
		}
		// (eq c (concat hi lo)) -> (eq c_hi hi) && (eq c_lo lo).
		// This byte-splitting is what lets the byte-level solver
		// propagate through multi-byte loads.
		if lc && r.op == OpConcat {
			hi, lo := r.kids[0], r.kids[1]
			return LAnd(
				Binary(OpEq, Const(l.val>>lo.width, hi.width), hi),
				Binary(OpEq, Const(l.val&lo.width.Mask(), lo.width), lo))
		}
	case OpUlt:
		if l == r {
			return False()
		}
		if lc && l.val == w.Mask() {
			return False() // max < x is false
		}
		if r.op == OpConst && r.val == 0 {
			return False() // x < 0 unsigned
		}
		// (ult c (zext x)) / (ult (zext x) c): narrow when c fits.
		if lc && r.op == OpZExt && l.val <= r.kids[0].width.Mask() {
			return Binary(OpUlt, Const(l.val, r.kids[0].width), r.kids[0])
		}
		if r.op == OpConst && l.op == OpZExt {
			if r.val > l.kids[0].width.Mask() {
				return True()
			}
			return Binary(OpUlt, l.kids[0], Const(r.val, l.kids[0].width))
		}
		// (ult (concat hi lo) c) -> hi < c_hi || (hi == c_hi && lo < c_lo);
		// symmetric for (ult c (concat hi lo)). Byte-splits comparisons.
		if r.op == OpConst && l.op == OpConcat {
			hi, lo := l.kids[0], l.kids[1]
			chi, clo := Const(r.val>>lo.width, hi.width), Const(r.val&lo.width.Mask(), lo.width)
			return LOr(Binary(OpUlt, hi, chi),
				LAnd(Binary(OpEq, chi, hi), Binary(OpUlt, lo, clo)))
		}
		if lc && r.op == OpConcat {
			hi, lo := r.kids[0], r.kids[1]
			chi, clo := Const(l.val>>lo.width, hi.width), Const(l.val&lo.width.Mask(), lo.width)
			return LOr(Binary(OpUlt, chi, hi),
				LAnd(Binary(OpEq, chi, hi), Binary(OpUlt, clo, lo)))
		}
	case OpUle:
		if l == r {
			return True()
		}
		if lc && l.val == 0 {
			return True()
		}
		if r.op == OpConst && r.val == w.Mask() {
			return True()
		}
	case OpSle:
		if l == r {
			return True()
		}
	case OpSlt:
		if l == r {
			return False()
		}
	}
	return nil
}

// Convenience binary constructors.

// Add returns l + r.
func Add(l, r *Expr) *Expr { return Binary(OpAdd, l, r) }

// Sub returns l - r.
func Sub(l, r *Expr) *Expr { return Binary(OpSub, l, r) }

// Or returns the bitwise OR of l and r.
func Or(l, r *Expr) *Expr { return Binary(OpOr, l, r) }

// Eq returns the W1 comparison l == r.
func Eq(l, r *Expr) *Expr { return Binary(OpEq, l, r) }

// Ne returns the W1 comparison l != r.
func Ne(l, r *Expr) *Expr { return Not(Eq(l, r)) }

// Ule returns the W1 unsigned comparison l <= r.
func Ule(l, r *Expr) *Expr { return Binary(OpUle, l, r) }

// Not returns the boolean negation of e (width W1).
func Not(e *Expr) *Expr {
	if e.width != W1 {
		panic("expr: Not on non-boolean")
	}
	if e.op == OpConst {
		return Bool(e.val == 0)
	}
	if e.op == OpNot {
		return e.kids[0]
	}
	return intern(OpNot, W1, 0, "", e)
}

// LAnd returns the boolean conjunction of l and r.
func LAnd(l, r *Expr) *Expr {
	if l.width != W1 || r.width != W1 {
		panic("expr: LAnd on non-boolean")
	}
	if l.IsFalse() || r.IsFalse() {
		return False()
	}
	if l.IsTrue() {
		return r
	}
	if r.IsTrue() {
		return l
	}
	if l == r {
		return l
	}
	return intern(OpLAnd, W1, 0, "", l, r)
}

// LOr returns the boolean disjunction of l and r.
func LOr(l, r *Expr) *Expr {
	if l.width != W1 || r.width != W1 {
		panic("expr: LOr on non-boolean")
	}
	if l.IsTrue() || r.IsTrue() {
		return True()
	}
	if l.IsFalse() {
		return r
	}
	if r.IsFalse() {
		return l
	}
	if l == r {
		return l
	}
	return intern(OpLOr, W1, 0, "", l, r)
}

// Concat returns hi ++ lo. The result width is the sum of the operand
// widths and must be one of the supported widths.
func Concat(hi, lo *Expr) *Expr {
	w := Width(uint(hi.width) + uint(lo.width))
	switch w {
	case W16, W32, W64:
	default:
		panic(fmt.Sprintf("expr: bad concat width %d", w))
	}
	if hi.op == OpConst && lo.op == OpConst {
		return Const(hi.val<<lo.width|lo.val, w)
	}
	// (concat (extract x hi..) (extract x lo..)) over adjacent ranges
	// folds back into a single wider extract of x.
	if hi.op == OpExtract && lo.op == OpExtract && hi.kids[0] == lo.kids[0] &&
		uint(lo.val)+uint(lo.width) == uint(hi.val) {
		return Extract(hi.kids[0], uint(lo.val), w)
	}
	// Zero high half is a zext of the low half.
	if hi.op == OpConst && hi.val == 0 {
		return ZExt(lo, w)
	}
	return intern(OpConcat, w, 0, "", hi, lo)
}

// Extract returns bits [off, off+w) of e.
func Extract(e *Expr, off uint, w Width) *Expr {
	if off+uint(w) > uint(e.width) {
		panic(fmt.Sprintf("expr: extract [%d,+%d) out of width %d", off, w, e.width))
	}
	if off == 0 && w == e.width {
		return e
	}
	switch e.op {
	case OpConst:
		return Const(e.val>>off, w)
	case OpZExt:
		inner := e.kids[0]
		if off == 0 && uint(w) >= uint(inner.width) {
			return ZExt(inner, w)
		}
		if off >= uint(inner.width) {
			return Const(0, w)
		}
		if off+uint(w) <= uint(inner.width) {
			return Extract(inner, off, w)
		}
	case OpSExt:
		inner := e.kids[0]
		if off == 0 && w == inner.width {
			return inner
		}
		if off+uint(w) <= uint(inner.width) {
			return Extract(inner, off, w)
		}
	case OpConcat:
		hi, lo := e.kids[0], e.kids[1]
		if off+uint(w) <= uint(lo.width) {
			return Extract(lo, off, w)
		}
		if off >= uint(lo.width) {
			return Extract(hi, off-uint(lo.width), w)
		}
	case OpExtract:
		return Extract(e.kids[0], uint(e.val)+off, w)
	}
	return intern(OpExtract, w, uint64(off), "", e)
}

// ZExt zero-extends e to width w (no-op if already that width).
func ZExt(e *Expr, w Width) *Expr {
	if e.width == w {
		return e
	}
	if e.width > w {
		return Extract(e, 0, w)
	}
	if e.op == OpConst {
		return Const(e.val, w)
	}
	if e.op == OpZExt {
		return ZExt(e.kids[0], w)
	}
	return intern(OpZExt, w, 0, "", e)
}

// SExt sign-extends e to width w (no-op if already that width).
func SExt(e *Expr, w Width) *Expr {
	if e.width == w {
		return e
	}
	if e.width > w {
		return Extract(e, 0, w)
	}
	if e.op == OpConst {
		return Const(uint64(signExtend(e.val, e.width)), w)
	}
	return intern(OpSExt, w, 0, "", e)
}

// Ite returns "if cond then a else b". cond must have width W1 and a, b
// equal widths.
func Ite(cond, a, b *Expr) *Expr {
	if cond.width != W1 {
		panic("expr: Ite condition not boolean")
	}
	if a.width != b.width {
		panic("expr: Ite arm width mismatch")
	}
	if cond.IsTrue() {
		return a
	}
	if cond.IsFalse() {
		return b
	}
	if a == b {
		return a
	}
	return intern(OpIte, a.width, 0, "", cond, a, b)
}

// Assignment binds symbolic byte variables to concrete byte values. It
// is a slice indexed by variable id whose element holds the bound value
// plus one: 0 means "unbound", so make, growth by append and clear never
// bind a variable, and ids at or past len(a) are unbound. Outside this
// package and the solver's search loop, read and write it only through
// Get and Set.
//
// Witness models are shared (between solver states, caches and callers)
// and never written: clone a shared assignment before writing to it. A
// Set that grows a slice into its spare capacity is a write too.
type Assignment []uint16

// Get returns the value bound to id, and whether id is bound.
func (a Assignment) Get(id uint64) (uint8, bool) {
	if id >= uint64(len(a)) || a[id] == 0 {
		return 0, false
	}
	return uint8(a[id] - 1), true
}

// Set binds id to v, growing a to hold id.
func (a *Assignment) Set(id uint64, v uint8) {
	if n := uint64(len(*a)); id >= n {
		*a = append(*a, make(Assignment, id+1-n)...)
	}
	(*a)[id] = uint16(v) + 1
}

// String renders the bindings in ascending id order, as {id:value ...}.
func (a Assignment) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for id := range uint64(len(a)) {
		if v, ok := a.Get(id); ok {
			if b.Len() > 1 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d:%d", id, v)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Eval evaluates e under a. It reports ok=false if e references a
// variable a leaves unbound (or hits a division by zero).
func (e *Expr) Eval(a Assignment) (uint64, bool) {
	switch e.op {
	case OpConst:
		return e.val, true
	case OpVar:
		v, ok := a.Get(e.val)
		return uint64(v), ok
	case OpNot:
		v, ok := e.kids[0].Eval(a)
		return b2u(v == 0), ok
	case OpLAnd:
		l, ok := e.kids[0].Eval(a)
		if !ok {
			return 0, false
		}
		if l == 0 {
			return 0, true
		}
		return e.kids[1].Eval(a)
	case OpLOr:
		l, ok := e.kids[0].Eval(a)
		if !ok {
			return 0, false
		}
		if l != 0 {
			return 1, true
		}
		return e.kids[1].Eval(a)
	case OpConcat:
		h, ok1 := e.kids[0].Eval(a)
		if !ok1 {
			return 0, false
		}
		l, ok2 := e.kids[1].Eval(a)
		return concatBits(h, l, e.kids[1].width), ok2
	case OpExtract:
		v, ok := e.kids[0].Eval(a)
		return extractBits(v, e.val, e.width.Mask()), ok
	case OpZExt:
		return e.kids[0].Eval(a)
	case OpSExt:
		v, ok := e.kids[0].Eval(a)
		return sextBits(v, e.kids[0].width, e.width.Mask()), ok
	case OpIte:
		c, ok := e.kids[0].Eval(a)
		if !ok {
			return 0, false
		}
		if c != 0 {
			return e.kids[1].Eval(a)
		}
		return e.kids[2].Eval(a)
	default:
		l, ok1 := e.kids[0].Eval(a)
		if !ok1 {
			return 0, false
		}
		r, ok2 := e.kids[1].Eval(a)
		if !ok2 {
			return 0, false
		}
		return foldBin(e.op, l, r, e.kids[0].width)
	}
}

// VarIDs returns the distinct variable ids referenced by e in ascending
// order. It decodes the cached summary; no DAG traversal.
func (e *Expr) VarIDs() []uint64 {
	if e.vars.n == 0 {
		return nil
	}
	return e.vars.AppendIDs(make([]uint64, 0, e.vars.n))
}

// FreeVars returns e's cached free-variable summary. The set is shared
// and must not be mutated.
func (e *Expr) FreeVars() *VarSet { return e.vars }

// NumVars returns the number of distinct variables in e. O(1).
func (e *Expr) NumVars() int { return e.vars.n }

// DeepVars is the recursive reference implementation of Vars, retained
// for verification and benchmarking: it re-walks the DAG per occurrence
// and appends ids in discovery order.
func (e *Expr) DeepVars(seen map[uint64]bool, dst []uint64) []uint64 {
	if e.op == OpVar {
		if !seen[e.val] {
			seen[e.val] = true
			dst = append(dst, e.val)
		}
		return dst
	}
	for _, k := range e.kids {
		dst = k.DeepVars(seen, dst)
	}
	return dst
}

// String renders e in a compact s-expression form for diagnostics.
func (e *Expr) String() string {
	var b strings.Builder
	e.format(&b)
	return b.String()
}

func (e *Expr) format(b *strings.Builder) {
	switch e.op {
	case OpConst:
		if e.width == W1 {
			if e.val == 1 {
				b.WriteString("true")
			} else {
				b.WriteString("false")
			}
			return
		}
		fmt.Fprintf(b, "%d:w%d", e.val, e.width)
	case OpVar:
		fmt.Fprintf(b, "%s#%d", e.name, e.val)
	case OpExtract:
		fmt.Fprintf(b, "(extract %d +%d ", e.val, e.width)
		e.kids[0].format(b)
		b.WriteByte(')')
	default:
		b.WriteByte('(')
		b.WriteString(e.op.String())
		if e.op == OpZExt || e.op == OpSExt {
			fmt.Fprintf(b, " w%d", e.width)
		}
		for _, k := range e.kids {
			b.WriteByte(' ')
			k.format(b)
		}
		b.WriteByte(')')
	}
}
