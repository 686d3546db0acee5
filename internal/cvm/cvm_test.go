package cvm

import (
	"strings"
	"testing"

	"cloud9/internal/expr"
)

// buildAbs constructs: func abs(x) { if x < 0 return -x else return x }
func buildAbs() *Func {
	b := NewFuncBuilder("abs", 1)
	zero := b.Const(0, expr.W32)
	cond := b.Bin(OpSlt, 0, zero, expr.W32)
	neg := b.NewBlock()
	pos := b.NewBlock()
	b.CondBr(cond, neg, pos)
	b.SetBlock(neg)
	z2 := b.Const(0, expr.W32)
	nx := b.Bin(OpSub, z2, 0, expr.W32)
	b.Ret(nx)
	b.SetBlock(pos)
	b.Ret(0)
	return b.Func()
}

func TestBuilderProducesValidFunc(t *testing.T) {
	p := NewProgram("t")
	p.Funcs["abs"] = buildAbs()
	if err := p.Validate(nil); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestValidateCatchesBadRegister(t *testing.T) {
	p := NewProgram("t")
	f := buildAbs()
	f.Blocks[0].Instrs[0].A = 99
	p.Funcs["abs"] = f
	if err := p.Validate(nil); err == nil {
		t.Fatal("expected out-of-range register error")
	}
}

func TestValidateCatchesBadTarget(t *testing.T) {
	p := NewProgram("t")
	f := buildAbs()
	f.Blocks[0].Instrs[len(f.Blocks[0].Instrs)-1].Imm = 42
	p.Funcs["abs"] = f
	if err := p.Validate(nil); err == nil {
		t.Fatal("expected branch target error")
	}
}

func TestValidateCatchesMidBlockTerminator(t *testing.T) {
	p := NewProgram("t")
	b := NewFuncBuilder("f", 0)
	r := b.Const(1, expr.W32)
	b.Ret(r)
	f := b.Func()
	// Append an instruction after the terminator.
	f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, Instr{Op: OpNop})
	p.Funcs["f"] = f
	if err := p.Validate(nil); err == nil {
		t.Fatal("expected terminator placement error")
	}
}

func TestValidateCatchesMissingTerminator(t *testing.T) {
	p := NewProgram("t")
	b := NewFuncBuilder("f", 0)
	b.Const(1, expr.W32)
	p.Funcs["f"] = b.Func()
	if err := p.Validate(nil); err == nil {
		t.Fatal("expected missing terminator error")
	}
}

func TestValidateCallResolution(t *testing.T) {
	p := NewProgram("t")
	b := NewFuncBuilder("f", 0)
	r := b.Call("mystery")
	b.Ret(r)
	p.Funcs["f"] = b.Func()
	if err := p.Validate(nil); err == nil {
		t.Fatal("unresolved callee should fail")
	}
	if err := p.Validate(func(s string) bool { return s == "mystery" }); err != nil {
		t.Fatalf("builtin-resolved callee should pass: %v", err)
	}
}

func TestValidateCallArity(t *testing.T) {
	p := NewProgram("t")
	p.Funcs["abs"] = buildAbs()
	b := NewFuncBuilder("main", 0)
	x := b.Const(5, expr.W32)
	r := b.Call("abs", x, x) // wrong arity
	b.Ret(r)
	p.Funcs["main"] = b.Func()
	if err := p.Validate(nil); err == nil || !strings.Contains(err.Error(), "args") {
		t.Fatalf("expected arity error, got %v", err)
	}
}

func TestValidateGlobals(t *testing.T) {
	p := NewProgram("t")
	p.AddGlobal("g", 4, []byte{1, 2, 3, 4})
	b := NewFuncBuilder("f", 0)
	a := b.GlobalAddr("g")
	v := b.Load(a, expr.W32)
	b.Ret(v)
	p.Funcs["f"] = b.Func()
	if err := p.Validate(nil); err != nil {
		t.Fatalf("valid global use failed: %v", err)
	}
	p.AddGlobal("bad", 2, []byte{1, 2, 3})
	if err := p.Validate(nil); err == nil {
		t.Fatal("oversized init should fail")
	}
}

func TestAllocaSlots(t *testing.T) {
	b := NewFuncBuilder("f", 0)
	o1 := b.Alloca(3)
	o2 := b.Alloca(8)
	if o1 != 0 || o2 != 1 {
		t.Errorf("slot indices %d, %d; want 0, 1", o1, o2)
	}
	f := b.Func()
	if len(f.Slots) != 2 || f.Slots[0] != 3 || f.Slots[1] != 8 {
		t.Errorf("slots = %v", f.Slots)
	}
}

func TestDisasmRoundTrips(t *testing.T) {
	p := NewProgram("demo")
	p.Funcs["abs"] = buildAbs()
	text := p.Disasm()
	for _, want := range []string{"func abs", "condbr", "ret", ".b1", ".b2"} {
		if !strings.Contains(text, want) {
			t.Errorf("disasm missing %q:\n%s", want, text)
		}
	}
}

func TestCoverableLines(t *testing.T) {
	b := NewFuncBuilder("f", 0)
	b.SetLine(10)
	r := b.Const(1, expr.W32)
	b.SetLine(11)
	b.Ret(r)
	p := NewProgram("t")
	p.Funcs["f"] = b.Func()
	if got := p.CoverableLines(); got != 2 {
		t.Errorf("coverable lines = %d, want 2", got)
	}
}

func TestExprOpMapping(t *testing.T) {
	for _, op := range []Opcode{OpAdd, OpSub, OpMul, OpUDiv, OpSDiv, OpURem,
		OpSRem, OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr, OpEq, OpUlt, OpUle, OpSlt, OpSle} {
		if _, ok := op.ExprOp(); !ok {
			t.Errorf("%v should map to an expr op", op)
		}
	}
	if _, ok := OpNe.ExprOp(); ok {
		t.Error("OpNe maps via Not(Eq), not directly")
	}
	if _, ok := OpLoad.ExprOp(); ok {
		t.Error("OpLoad is not an ALU op")
	}
}

func TestOpcodeStrings(t *testing.T) {
	if OpAdd.String() != "add" || OpCondBr.String() != "condbr" {
		t.Error("opcode names wrong")
	}
	if !OpRet.IsTerminator() || OpAdd.IsTerminator() {
		t.Error("IsTerminator misreports")
	}
}
