package cc

import (
	"fmt"

	"cloud9/internal/cvm"
	"cloud9/internal/expr"
)

// Signature describes a callable's type for compilation purposes.
type Signature struct {
	Ret      *Type
	Params   []*Type
	Variadic bool
}

// Options configures compilation.
type Options struct {
	// Externs maps names of runtime-provided functions (the POSIX model
	// and engine intrinsics) to their signatures.
	Externs map[string]*Signature
	// CoverageStartLine, when positive, excludes instructions attached to
	// earlier source lines from coverage accounting (used to ignore the
	// model prelude when measuring target coverage).
	CoverageStartLine int
}

// Compile translates the C-subset source into a CVM program.
func Compile(name, src string, opts Options) (*cvm.Program, error) {
	return compileUnit(name, src, opts, true)
}

// compileUnit is Compile; promote false leaves every local a memory object,
// the reference the differential test holds slot promotion to.
func compileUnit(name, src string, opts Options, promote bool) (prog *cvm.Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			if le, ok := r.(lexError); ok {
				err = fmt.Errorf("cc: %s: %w", name, le)
				return
			}
			panic(r)
		}
	}()
	toks := lex(src)
	p := &parser{toks: toks}
	u := p.parseUnit()

	g := &gen{
		prog:    cvm.NewProgram(name),
		externs: opts.Externs,
		sigs:    map[string]*Signature{},
		globals: map[string]*Type{},
	}
	// Collect signatures (including prototypes) and globals first so
	// that forward references resolve.
	for _, fd := range u.funcs {
		sig := &Signature{Ret: fd.ret}
		for _, pa := range fd.params {
			sig.Params = append(sig.Params, pa.t)
		}
		g.sigs[fd.name] = sig
	}
	for _, gd := range u.globals {
		g.globals[gd.name] = gd.t
		init := make([]byte, 0, gd.t.Size())
		if gd.hasStr {
			init = append(init, gd.strInit...)
		} else if gd.init != nil {
			v, ok := g.evalConst(gd.init)
			if !ok {
				panic(errf(gd.line, "global initializer must be constant"))
			}
			init = encodeLE(v, gd.t.Size())
		}
		g.prog.AddGlobal(gd.name, gd.t.Size(), init)
	}
	for _, fd := range u.funcs {
		if fd.body == nil {
			continue // prototype only
		}
		g.genFunc(fd)
	}
	// Strip coverage attribution from prelude lines and track the max
	// line for coverage bit-vector sizing.
	for _, f := range g.prog.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if opts.CoverageStartLine > 0 && b.Instrs[i].Line < opts.CoverageStartLine {
					b.Instrs[i].Line = 0
					continue
				}
				if b.Instrs[i].Line > g.prog.MaxLine {
					g.prog.MaxLine = b.Instrs[i].Line
				}
			}
		}
	}
	if promote {
		g.prog.PromoteSlots()
	}
	if verr := g.prog.Validate(func(s string) bool {
		_, ok := g.externs[s]
		return ok
	}); verr != nil {
		return nil, fmt.Errorf("cc: %s: generated invalid IR: %w", name, verr)
	}
	return g.prog, nil
}

func encodeLE(v int64, size int64) []byte {
	out := make([]byte, size)
	for i := int64(0); i < size && i < 8; i++ {
		out[i] = byte(v >> (8 * i))
	}
	return out
}

// gen holds program-wide codegen state.
type gen struct {
	prog    *cvm.Program
	externs map[string]*Signature
	sigs    map[string]*Signature
	globals map[string]*Type
	strN    int
}

// value is an rvalue held in a register.
type value struct {
	reg int
	t   *Type
}

// lval is an addressable location.
type lval struct {
	addr int // register holding the address
	t    *Type
}

// fgen holds per-function codegen state.
type fgen struct {
	*gen
	fb     *cvm.FuncBuilder
	fd     *funcDecl
	scopes []map[string]localVar
	breaks []*cvm.Block
	conts  []*cvm.Block
}

type localVar struct {
	offset int64
	t      *Type
}

func (g *gen) genFunc(fd *funcDecl) {
	fb := cvm.NewFuncBuilder(fd.name, len(fd.params))
	f := &fgen{gen: g, fb: fb, fd: fd}
	f.pushScope()
	// Spill parameters to stack slots so they are addressable like any
	// other local.
	fb.SetLine(fd.line)
	for i, pa := range fd.params {
		off := fb.Alloca(pa.t.Size())
		f.scopes[0][pa.name] = localVar{offset: off, t: pa.t}
		addr := fb.FrameAddr(off)
		fb.Store(addr, i, pa.t.Width())
	}
	f.genBlockStmt(fd.body)
	if !fb.Terminated() {
		if fd.ret.Kind == KVoid {
			fb.Ret(-1)
		} else {
			z := fb.Const(0, fd.ret.Width())
			fb.Ret(z)
		}
	}
	g.prog.Funcs[fd.name] = fb.Func()
}

func (f *fgen) pushScope() { f.scopes = append(f.scopes, map[string]localVar{}) }
func (f *fgen) popScope()  { f.scopes = f.scopes[:len(f.scopes)-1] }

func (f *fgen) lookup(name string) (localVar, bool) {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if lv, ok := f.scopes[i][name]; ok {
			return lv, true
		}
	}
	return localVar{}, false
}

// ---- Statements ----

func (f *fgen) genStmt(s stmtNode) {
	f.fb.SetLine(s.nodeLine())
	switch st := s.(type) {
	case *blockStmt:
		f.genBlockStmt(st)
	case *declStmt:
		off := f.fb.Alloca(st.t.Size())
		f.scopes[len(f.scopes)-1][st.name] = localVar{offset: off, t: st.t}
		if st.init != nil {
			v := f.genExpr(st.init)
			cv := f.convert(v, st.t.Decay())
			addr := f.fb.FrameAddr(off)
			f.fb.Store(addr, cv.reg, st.t.Width())
		}
	case *exprStmt:
		f.genExprForEffect(st.x)
	case *ifStmt:
		c := f.genCond(st.c)
		thenB := f.fb.NewBlock()
		elseB := f.fb.NewBlock()
		endB := f.fb.NewBlock()
		f.fb.CondBr(c, thenB, elseB)
		f.fb.SetBlock(thenB)
		f.genStmt(st.then)
		if !f.fb.Terminated() {
			f.fb.Br(endB)
		}
		f.fb.SetBlock(elseB)
		if st.els != nil {
			f.genStmt(st.els)
		}
		if !f.fb.Terminated() {
			f.fb.Br(endB)
		}
		f.fb.SetBlock(endB)
	case *whileStmt:
		condB := f.fb.NewBlock()
		bodyB := f.fb.NewBlock()
		endB := f.fb.NewBlock()
		if st.doWhile {
			f.fb.Br(bodyB)
		} else {
			f.fb.Br(condB)
		}
		f.fb.SetBlock(condB)
		f.fb.SetLine(st.line)
		c := f.genCond(st.c)
		f.fb.CondBr(c, bodyB, endB)
		f.fb.SetBlock(bodyB)
		f.breaks = append(f.breaks, endB)
		f.conts = append(f.conts, condB)
		f.genStmt(st.body)
		f.breaks = f.breaks[:len(f.breaks)-1]
		f.conts = f.conts[:len(f.conts)-1]
		if !f.fb.Terminated() {
			f.fb.Br(condB)
		}
		f.fb.SetBlock(endB)
	case *forStmt:
		f.pushScope()
		if st.init != nil {
			f.genStmt(st.init)
		}
		condB := f.fb.NewBlock()
		bodyB := f.fb.NewBlock()
		postB := f.fb.NewBlock()
		endB := f.fb.NewBlock()
		f.fb.Br(condB)
		f.fb.SetBlock(condB)
		if st.c != nil {
			f.fb.SetLine(st.line)
			c := f.genCond(st.c)
			f.fb.CondBr(c, bodyB, endB)
		} else {
			f.fb.Br(bodyB)
		}
		f.fb.SetBlock(bodyB)
		f.breaks = append(f.breaks, endB)
		f.conts = append(f.conts, postB)
		f.genStmt(st.body)
		f.breaks = f.breaks[:len(f.breaks)-1]
		f.conts = f.conts[:len(f.conts)-1]
		if !f.fb.Terminated() {
			f.fb.Br(postB)
		}
		f.fb.SetBlock(postB)
		if st.post != nil {
			f.genExprForEffect(st.post)
		}
		f.fb.Br(condB)
		f.fb.SetBlock(endB)
		f.popScope()
	case *switchStmt:
		f.genSwitch(st)
	case *breakStmt:
		if len(f.breaks) == 0 {
			panic(errf(st.line, "break outside loop/switch"))
		}
		f.fb.Br(f.breaks[len(f.breaks)-1])
		f.fb.SetBlock(f.fb.NewBlock()) // unreachable continuation
	case *continueStmt:
		if len(f.conts) == 0 {
			panic(errf(st.line, "continue outside loop"))
		}
		f.fb.Br(f.conts[len(f.conts)-1])
		f.fb.SetBlock(f.fb.NewBlock())
	case *returnStmt:
		if st.x == nil {
			f.fb.Ret(-1)
		} else {
			v := f.genExpr(st.x)
			cv := f.convert(v, f.fd.ret)
			f.fb.Ret(cv.reg)
		}
		f.fb.SetBlock(f.fb.NewBlock())
	default:
		panic(errf(s.nodeLine(), "unsupported statement %T", s))
	}
}

func (f *fgen) genBlockStmt(b *blockStmt) {
	f.pushScope()
	for _, s := range b.stmts {
		f.genStmt(s)
	}
	f.popScope()
}

func (f *fgen) genSwitch(st *switchStmt) {
	x := f.genExpr(st.x)
	endB := f.fb.NewBlock()

	// One body block per case, in declaration order (for fallthrough).
	bodyBlocks := make([]*cvm.Block, len(st.cases))
	for i := range st.cases {
		bodyBlocks[i] = f.fb.NewBlock()
	}
	// Dispatch chain.
	defIdx := -1
	for i, sc := range st.cases {
		if sc.isDef {
			defIdx = i
			continue
		}
		cv := f.fb.Const(sc.val, x.t.Width())
		c := f.fb.Bin(cvm.OpEq, x.reg, cv, x.t.Width())
		nextB := f.fb.NewBlock()
		f.fb.CondBr(c, bodyBlocks[i], nextB)
		f.fb.SetBlock(nextB)
	}
	if defIdx >= 0 {
		f.fb.Br(bodyBlocks[defIdx])
	} else {
		f.fb.Br(endB)
	}
	// Bodies with fallthrough.
	f.breaks = append(f.breaks, endB)
	for i, sc := range st.cases {
		f.fb.SetBlock(bodyBlocks[i])
		f.fb.SetLine(sc.line)
		for _, s := range sc.body {
			f.genStmt(s)
		}
		if !f.fb.Terminated() {
			if i+1 < len(st.cases) {
				f.fb.Br(bodyBlocks[i+1])
			} else {
				f.fb.Br(endB)
			}
		}
	}
	f.breaks = f.breaks[:len(f.breaks)-1]
	f.fb.SetBlock(endB)
}

// ---- Expressions ----

// genExprForEffect evaluates x, discarding any value (so void calls are
// legal here).
func (f *fgen) genExprForEffect(x exprNode) {
	if c, ok := x.(*call); ok {
		f.genCall(c, true)
		return
	}
	f.genExpr(x)
}

// genExpr produces an rvalue.
func (f *fgen) genExpr(x exprNode) value {
	f.fb.SetLine(x.nodeLine())
	switch e := x.(type) {
	case *numLit:
		t := TypeInt
		if e.val > 0x7fffffff || e.val < -0x80000000 {
			t = TypeLong
		}
		return value{f.fb.Const(e.val, t.Width()), t}
	case *strLit:
		name := f.internString(e.val)
		return value{f.fb.GlobalAddr(name), Ptr(TypeChar)}
	case *identRef:
		lv := f.genAddrOfIdent(e)
		if lv.t.Kind == KArray {
			return value{lv.addr, Ptr(lv.t.Elem)}
		}
		return value{f.fb.Load(lv.addr, lv.t.Width()), lv.t}
	case *unary:
		return f.genUnary(e)
	case *binary:
		return f.genBinary(e)
	case *assign:
		return f.genAssign(e)
	case *cond:
		return f.genTernary(e)
	case *index:
		lv := f.genLValue(e)
		if lv.t.Kind == KArray {
			return value{lv.addr, Ptr(lv.t.Elem)}
		}
		return value{f.fb.Load(lv.addr, lv.t.Width()), lv.t}
	case *call:
		return f.genCall(e, false)
	case *cast:
		v := f.genExpr(e.x)
		return f.convert(v, e.to)
	case *sizeofExpr:
		return value{f.fb.Const(e.t.Size(), expr.W64), TypeULong}
	case *valueExpr:
		return e.v
	default:
		panic(errf(x.nodeLine(), "unsupported expression %T", x))
	}
}

// genLValue produces an addressable location.
func (f *fgen) genLValue(x exprNode) lval {
	f.fb.SetLine(x.nodeLine())
	switch e := x.(type) {
	case *identRef:
		return f.genAddrOfIdent(e)
	case *unary:
		if e.op == "*" {
			v := f.genExpr(e.x)
			if !v.t.IsPointerish() {
				panic(errf(e.line, "dereference of non-pointer %s", v.t))
			}
			return lval{v.reg, v.t.Decay().Elem}
		}
	case *index:
		arr := f.genExpr(e.arr)
		if !arr.t.IsPointerish() {
			panic(errf(e.line, "indexing non-pointer %s", arr.t))
		}
		pt := arr.t.Decay()
		idx := f.genExpr(e.idx)
		addr := f.pointerAdd(arr.reg, pt, idx, e.line)
		return lval{addr, pt.Elem}
	}
	panic(errf(x.nodeLine(), "expression is not an lvalue"))
}

func (f *fgen) genAddrOfIdent(e *identRef) lval {
	if lv, ok := f.lookup(e.name); ok {
		return lval{f.fb.FrameAddr(lv.offset), lv.t}
	}
	if t, ok := f.globals[e.name]; ok {
		return lval{f.fb.GlobalAddr(e.name), t}
	}
	panic(errf(e.line, "undefined identifier %q", e.name))
}

// pointerAdd computes ptr + idx*sizeof(elem), returning the address reg.
func (f *fgen) pointerAdd(ptrReg int, pt *Type, idx value, line int) int {
	if !idx.t.IsInteger() {
		panic(errf(line, "pointer offset must be integer, got %s", idx.t))
	}
	wide := f.widen(idx, expr.W64)
	sz := pt.Elem.Size()
	if sz != 1 {
		szReg := f.fb.Const(sz, expr.W64)
		wide = f.fb.Bin(cvm.OpMul, wide, szReg, expr.W64)
	}
	return f.fb.Bin(cvm.OpAdd, ptrReg, wide, expr.W64)
}

// widen converts v's register to width w honoring signedness.
func (f *fgen) widen(v value, w expr.Width) int {
	if v.t.Width() == w {
		return v.reg
	}
	if v.t.Width() > w {
		return f.fb.Conv(cvm.OpTrunc, v.reg, w)
	}
	if v.t.IsInteger() && v.t.Signed {
		return f.fb.Conv(cvm.OpSExt, v.reg, w)
	}
	return f.fb.Conv(cvm.OpZExt, v.reg, w)
}

// convert adapts v to type "to" (width change only; pointer/integer
// conversions are free-form as in C).
func (f *fgen) convert(v value, to *Type) value {
	if to.Kind == KVoid {
		return value{v.reg, TypeVoid}
	}
	return value{f.widen(v, to.Width()), to}
}

func (f *fgen) internString(s string) string {
	name := fmt.Sprintf(".str%d", f.strN)
	f.strN++
	data := append([]byte(s), 0)
	f.prog.AddGlobal(name, int64(len(data)), data)
	f.globals[name] = ArrayOf(TypeChar, int64(len(data)))
	return name
}

// genCond produces a W1 register for branch conditions, with
// short-circuit lowering for && and ||.
func (f *fgen) genCond(x exprNode) int {
	f.fb.SetLine(x.nodeLine())
	switch e := x.(type) {
	case *binary:
		switch e.op {
		case "&&":
			// l && r: if !l -> false
			res := f.fb.Alloca(1)
			rBlk := f.fb.NewBlock()
			fBlk := f.fb.NewBlock()
			end := f.fb.NewBlock()
			l := f.genCond(e.l)
			f.fb.CondBr(l, rBlk, fBlk)
			f.fb.SetBlock(rBlk)
			r := f.genCond(e.r)
			r8 := f.fb.Conv(cvm.OpZExt, r, expr.W8)
			a1 := f.fb.FrameAddr(res)
			f.fb.Store(a1, r8, expr.W8)
			f.fb.Br(end)
			f.fb.SetBlock(fBlk)
			z := f.fb.Const(0, expr.W8)
			a2 := f.fb.FrameAddr(res)
			f.fb.Store(a2, z, expr.W8)
			f.fb.Br(end)
			f.fb.SetBlock(end)
			a3 := f.fb.FrameAddr(res)
			v := f.fb.Load(a3, expr.W8)
			zero := f.fb.Const(0, expr.W8)
			return f.fb.Bin(cvm.OpNe, v, zero, expr.W8)
		case "||":
			res := f.fb.Alloca(1)
			rBlk := f.fb.NewBlock()
			tBlk := f.fb.NewBlock()
			end := f.fb.NewBlock()
			l := f.genCond(e.l)
			f.fb.CondBr(l, tBlk, rBlk)
			f.fb.SetBlock(tBlk)
			one := f.fb.Const(1, expr.W8)
			a1 := f.fb.FrameAddr(res)
			f.fb.Store(a1, one, expr.W8)
			f.fb.Br(end)
			f.fb.SetBlock(rBlk)
			r := f.genCond(e.r)
			r8 := f.fb.Conv(cvm.OpZExt, r, expr.W8)
			a2 := f.fb.FrameAddr(res)
			f.fb.Store(a2, r8, expr.W8)
			f.fb.Br(end)
			f.fb.SetBlock(end)
			a3 := f.fb.FrameAddr(res)
			v := f.fb.Load(a3, expr.W8)
			zero := f.fb.Const(0, expr.W8)
			return f.fb.Bin(cvm.OpNe, v, zero, expr.W8)
		case "==", "!=", "<", "<=", ">", ">=":
			l := f.genExpr(e.l)
			r := f.genExpr(e.r)
			return f.genCompare(e.op, l, r, e.line)
		}
	case *unary:
		if e.op == "!" {
			c := f.genCond(e.x)
			one := f.fb.Const(1, expr.W1)
			return f.fb.Bin(cvm.OpXor, c, one, expr.W1)
		}
	}
	v := f.genExpr(x)
	z := f.fb.Const(0, v.t.Width())
	return f.fb.Bin(cvm.OpNe, v.reg, z, v.t.Width())
}

// genCompare emits a comparison yielding a W1 register.
func (f *fgen) genCompare(op string, l, r value, line int) int {
	var ct *Type
	if l.t.IsPointerish() || r.t.IsPointerish() {
		ct = TypeULong
	} else {
		ct = usualArith(l.t, r.t)
	}
	lr := f.widen(l, ct.Width())
	rr := f.widen(r, ct.Width())
	w := ct.Width()
	signed := ct.IsInteger() && ct.Signed
	switch op {
	case "==":
		return f.fb.Bin(cvm.OpEq, lr, rr, w)
	case "!=":
		return f.fb.Bin(cvm.OpNe, lr, rr, w)
	case "<":
		if signed {
			return f.fb.Bin(cvm.OpSlt, lr, rr, w)
		}
		return f.fb.Bin(cvm.OpUlt, lr, rr, w)
	case "<=":
		if signed {
			return f.fb.Bin(cvm.OpSle, lr, rr, w)
		}
		return f.fb.Bin(cvm.OpUle, lr, rr, w)
	case ">":
		if signed {
			return f.fb.Bin(cvm.OpSlt, rr, lr, w)
		}
		return f.fb.Bin(cvm.OpUlt, rr, lr, w)
	case ">=":
		if signed {
			return f.fb.Bin(cvm.OpSle, rr, lr, w)
		}
		return f.fb.Bin(cvm.OpUle, rr, lr, w)
	}
	panic(errf(line, "bad comparison %q", op))
}

func (f *fgen) genUnary(e *unary) value {
	switch e.op {
	case "-":
		v := f.genExpr(e.x)
		t := usualArith(v.t, TypeInt)
		r := f.widen(v, t.Width())
		z := f.fb.Const(0, t.Width())
		return value{f.fb.Bin(cvm.OpSub, z, r, t.Width()), t}
	case "~":
		v := f.genExpr(e.x)
		t := usualArith(v.t, TypeInt)
		r := f.widen(v, t.Width())
		m := f.fb.Const(-1, t.Width())
		return value{f.fb.Bin(cvm.OpXor, r, m, t.Width()), t}
	case "!":
		c := f.genCond(e.x)
		one := f.fb.Const(1, expr.W1)
		inv := f.fb.Bin(cvm.OpXor, c, one, expr.W1)
		return value{f.fb.Conv(cvm.OpZExt, inv, expr.W32), TypeInt}
	case "*":
		v := f.genExpr(e.x)
		if !v.t.IsPointerish() {
			panic(errf(e.line, "dereference of non-pointer %s", v.t))
		}
		et := v.t.Decay().Elem
		if et.Kind == KArray {
			return value{v.reg, Ptr(et.Elem)}
		}
		return value{f.fb.Load(v.reg, et.Width()), et}
	case "&":
		lv := f.genLValue(e.x)
		return value{lv.addr, Ptr(lv.t)}
	case "++", "--", "p++", "p--":
		return f.genIncDec(e)
	}
	panic(errf(e.line, "unsupported unary %q", e.op))
}

func (f *fgen) genIncDec(e *unary) value {
	lv := f.genLValue(e.x)
	old := f.fb.Load(lv.addr, lv.t.Width())
	var delta int64 = 1
	if lv.t.Kind == KPtr {
		delta = lv.t.Elem.Size()
	}
	d := f.fb.Const(delta, lv.t.Width())
	op := cvm.OpAdd
	if e.op == "--" || e.op == "p--" {
		op = cvm.OpSub
	}
	nw := f.fb.Bin(op, old, d, lv.t.Width())
	f.fb.Store(lv.addr, nw, lv.t.Width())
	if e.op == "++" || e.op == "--" {
		return value{nw, lv.t}
	}
	return value{old, lv.t}
}

var binOpcode = map[string]cvm.Opcode{
	"+": cvm.OpAdd, "-": cvm.OpSub, "*": cvm.OpMul,
	"&": cvm.OpAnd, "|": cvm.OpOr, "^": cvm.OpXor,
	"<<": cvm.OpShl,
}

func (f *fgen) genBinary(e *binary) value {
	switch e.op {
	case "&&", "||":
		c := f.genCond(e)
		return value{f.fb.Conv(cvm.OpZExt, c, expr.W32), TypeInt}
	case "==", "!=", "<", "<=", ">", ">=":
		l := f.genExpr(e.l)
		r := f.genExpr(e.r)
		c := f.genCompare(e.op, l, r, e.line)
		return value{f.fb.Conv(cvm.OpZExt, c, expr.W32), TypeInt}
	case ",":
		f.genExprForEffect(e.l)
		return f.genExpr(e.r)
	}
	l := f.genExpr(e.l)
	r := f.genExpr(e.r)

	// Pointer arithmetic.
	if e.op == "+" && l.t.IsPointerish() {
		pt := l.t.Decay()
		return value{f.pointerAdd(l.reg, pt, r, e.line), pt}
	}
	if e.op == "+" && r.t.IsPointerish() {
		pt := r.t.Decay()
		return value{f.pointerAdd(r.reg, pt, l, e.line), pt}
	}
	if e.op == "-" && l.t.IsPointerish() {
		pt := l.t.Decay()
		if r.t.IsPointerish() {
			diff := f.fb.Bin(cvm.OpSub, l.reg, r.reg, expr.W64)
			if sz := pt.Elem.Size(); sz != 1 {
				szr := f.fb.Const(sz, expr.W64)
				diff = f.fb.Bin(cvm.OpSDiv, diff, szr, expr.W64)
			}
			return value{diff, TypeLong}
		}
		// p - i: scaled subtract.
		wide := f.widen(r, expr.W64)
		if sz := pt.Elem.Size(); sz != 1 {
			szr := f.fb.Const(sz, expr.W64)
			wide = f.fb.Bin(cvm.OpMul, wide, szr, expr.W64)
		}
		return value{f.fb.Bin(cvm.OpSub, l.reg, wide, expr.W64), pt}
	}

	t := usualArith(l.t, r.t)
	lr := f.widen(l, t.Width())
	rr := f.widen(r, t.Width())
	w := t.Width()
	switch e.op {
	case "/":
		if t.Signed {
			return value{f.fb.Bin(cvm.OpSDiv, lr, rr, w), t}
		}
		return value{f.fb.Bin(cvm.OpUDiv, lr, rr, w), t}
	case "%":
		if t.Signed {
			return value{f.fb.Bin(cvm.OpSRem, lr, rr, w), t}
		}
		return value{f.fb.Bin(cvm.OpURem, lr, rr, w), t}
	case ">>":
		// Shift result takes the left operand's (promoted) type.
		lt := usualArith(l.t, TypeInt)
		lw := f.widen(l, lt.Width())
		rw := f.widen(r, lt.Width())
		if lt.Signed {
			return value{f.fb.Bin(cvm.OpAShr, lw, rw, lt.Width()), lt}
		}
		return value{f.fb.Bin(cvm.OpLShr, lw, rw, lt.Width()), lt}
	case "<<":
		lt := usualArith(l.t, TypeInt)
		lw := f.widen(l, lt.Width())
		rw := f.widen(r, lt.Width())
		return value{f.fb.Bin(cvm.OpShl, lw, rw, lt.Width()), lt}
	}
	op, ok := binOpcode[e.op]
	if !ok {
		panic(errf(e.line, "unsupported binary %q", e.op))
	}
	return value{f.fb.Bin(op, lr, rr, w), t}
}

func (f *fgen) genAssign(e *assign) value {
	lv := f.genLValue(e.l)
	var v value
	if e.op == "=" {
		v = f.genExpr(e.r)
	} else {
		// Compound: load, apply, store.
		cur := value{f.fb.Load(lv.addr, lv.t.Width()), lv.t}
		binOp := e.op[:len(e.op)-1]
		synth := &binary{base: base{e.line}, op: binOp, l: wrapValue(cur, e.line), r: e.r}
		v = f.genBinary(synth)
	}
	cv := f.convert(v, lv.t.Decay())
	f.fb.Store(lv.addr, cv.reg, lv.t.Width())
	return value{cv.reg, lv.t}
}

// valueExpr lets an already-evaluated value participate in AST-driven
// codegen (used by compound assignment).
type valueExpr struct {
	base
	v value
}

func wrapValue(v value, line int) exprNode { return &valueExpr{base{line}, v} }

func (f *fgen) genTernary(e *cond) value {
	c := f.genCond(e.c)
	// Result type: evaluate both arms into a shared frame slot.
	thenB := f.fb.NewBlock()
	elseB := f.fb.NewBlock()
	endB := f.fb.NewBlock()
	slot := f.fb.Alloca(8)
	f.fb.CondBr(c, thenB, elseB)

	f.fb.SetBlock(thenB)
	av := f.genExpr(e.a)
	at := av.t.Decay()
	a64 := f.widen(av, expr.W64)
	addr1 := f.fb.FrameAddr(slot)
	f.fb.Store(addr1, a64, expr.W64)
	f.fb.Br(endB)

	f.fb.SetBlock(elseB)
	bv := f.genExpr(e.b)
	b64 := f.widen(bv, expr.W64)
	addr2 := f.fb.FrameAddr(slot)
	f.fb.Store(addr2, b64, expr.W64)
	f.fb.Br(endB)

	f.fb.SetBlock(endB)
	addr3 := f.fb.FrameAddr(slot)
	raw := f.fb.Load(addr3, expr.W64)
	res := value{raw, TypeLong}
	// Use the then-arm's type as the result type (both arms should
	// agree in well-formed programs).
	return f.convert(res, at)
}

func (f *fgen) genCall(e *call, discard bool) value {
	sig := f.sigs[e.name]
	if sig == nil {
		sig = f.externs[e.name]
	}
	if sig == nil {
		panic(errf(e.line, "call to undeclared function %q", e.name))
	}
	if len(e.args) < len(sig.Params) || (len(e.args) > len(sig.Params) && !sig.Variadic) {
		panic(errf(e.line, "call to %q with %d args, want %d", e.name, len(e.args), len(sig.Params)))
	}
	regs := make([]int, 0, len(e.args))
	for i, a := range e.args {
		av := f.genExpr(a)
		if i < len(sig.Params) {
			cv := f.convert(av, sig.Params[i].Decay())
			regs = append(regs, cv.reg)
		} else {
			// Variadic extras: promote to at least int width.
			t := av.t.Decay()
			if t.IsInteger() && t.W < expr.W32 {
				regs = append(regs, f.widen(av, expr.W32))
			} else {
				regs = append(regs, av.reg)
			}
		}
	}
	f.fb.SetLine(e.line)
	if discard || sig.Ret.Kind == KVoid {
		f.fb.CallVoid(e.name, regs...)
		return value{0, TypeVoid}
	}
	r := f.fb.Call(e.name, regs...)
	return value{r, sig.Ret}
}

// evalConst folds a constant expression at compile time.
func (g *gen) evalConst(x exprNode) (int64, bool) {
	switch e := x.(type) {
	case *numLit:
		return e.val, true
	case *sizeofExpr:
		return e.t.Size(), true
	case *unary:
		v, ok := g.evalConst(e.x)
		if !ok {
			return 0, false
		}
		switch e.op {
		case "-":
			return -v, true
		case "~":
			return ^v, true
		case "!":
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case *binary:
		l, ok1 := g.evalConst(e.l)
		r, ok2 := g.evalConst(e.r)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch e.op {
		case "+":
			return l + r, true
		case "-":
			return l - r, true
		case "*":
			return l * r, true
		case "/":
			if r != 0 {
				return l / r, true
			}
		case "%":
			if r != 0 {
				return l % r, true
			}
		case "<<":
			return l << uint(r), true
		case ">>":
			return l >> uint(r), true
		case "&":
			return l & r, true
		case "|":
			return l | r, true
		case "^":
			return l ^ r, true
		}
	case *cast:
		return g.evalConst(e.x)
	}
	return 0, false
}
