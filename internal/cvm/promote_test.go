package cvm

import (
	"strings"
	"testing"

	"cloud9/internal/expr"
)

// buildCounter constructs what a front end would emit for
//
//	short n = 0; char buf[2]; long self;
//	n = n + 1; buf[1] = 9; self = (long)&self; return n;
//
// n (slot 0) is only loaded and stored at its width, buf (slot 1) is
// indexed, and self (slot 2) has its address stored as a value.
func buildCounter() *Func {
	b := NewFuncBuilder("counter", 0)
	n := b.Alloca(2)
	buf := b.Alloca(2)
	esc := b.Alloca(8)
	b.SetLine(7)
	zero := b.Const(0, expr.W16)
	b.Store(b.FrameAddr(n), zero, expr.W16)
	a := b.FrameAddr(n) // one address register, loaded and stored through
	one := b.Const(1, expr.W16)
	b.Store(a, b.Bin(OpAdd, b.Load(a, expr.W16), one, expr.W16), expr.W16)
	idx := b.Const(1, expr.W64)
	b.Store(b.Bin(OpAdd, b.FrameAddr(buf), idx, expr.W64), b.Const(9, expr.W8), expr.W8)
	b.Store(b.FrameAddr(esc), b.FrameAddr(esc), expr.W64) // stored as a value: escapes
	b.Ret(b.Load(b.FrameAddr(n), expr.W16))
	return b.Func()
}

func promoted(f *Func) string {
	var s strings.Builder
	for i := range f.Slots {
		if f.SlotReg(i) >= 0 {
			s.WriteByte('P')
		} else {
			s.WriteByte('M')
		}
	}
	return s.String()
}

func TestPromoteSlotsRewritesInPlace(t *testing.T) {
	before := buildCounter()
	f := buildCounter()
	p := NewProgram("t")
	p.Funcs[f.Name] = f
	p.PromoteSlots()
	if err := p.Validate(nil); err != nil {
		t.Fatalf("promoted IR does not validate: %v", err)
	}
	if got := promoted(f); got != "PMM" {
		t.Fatalf("promoted slots %s, want PMM:\n%s", got, f.Disasm())
	}
	if f.NumRegs != before.NumRegs+1 || f.SlotRegs[0] != before.NumRegs {
		t.Errorf("the promoted slot's register should follow the function's own %d: regs=%d slotregs=%v",
			before.NumRegs, f.NumRegs, f.SlotRegs)
	}
	// One for one: same length, same lines, and only the three kinds of
	// rewrite.
	want := map[Opcode]Opcode{OpFrameAddr: OpNop, OpLoad: OpMov, OpStore: OpSlotStore}
	rewritten := 0
	for i, was := range before.Blocks[0].Instrs {
		is := f.Blocks[0].Instrs[i]
		if is.Line != was.Line {
			t.Errorf("instr %d: line %d became %d", i, was.Line, is.Line)
		}
		if is.Op == was.Op {
			continue
		}
		rewritten++
		if want[was.Op] != is.Op {
			t.Errorf("instr %d: %v became %v", i, was.Op, is.Op)
		}
	}
	if len(f.Blocks[0].Instrs) != len(before.Blocks[0].Instrs) || rewritten != 7 {
		t.Errorf("%d instructions (%d before), %d rewritten, want 7:\n%s",
			len(f.Blocks[0].Instrs), len(before.Blocks[0].Instrs), rewritten, f.Disasm())
	}
	text := f.Disasm()
	for _, want := range []string{"slots=3 promoted=1", "= slotstore w16 r"} {
		if !strings.Contains(text, want) {
			t.Errorf("disasm missing %q:\n%s", want, text)
		}
	}
	// Running the pass again changes nothing.
	regs := f.NumRegs
	p.PromoteSlots()
	if f.NumRegs != regs || promoted(f) != "PMM" {
		t.Errorf("a second pass moved things: regs=%d slots=%s", f.NumRegs, promoted(f))
	}
}

// Every use of a slot's address but the address operand of a load or
// store of the slot's own width keeps the slot in memory.
func TestPromoteSlotsEscapes(t *testing.T) {
	cases := []struct {
		name string
		size int64
		use  func(b *FuncBuilder, addr int)
		want string
	}{
		{"load and store at width", 4, func(b *FuncBuilder, a int) { b.Store(a, b.Load(a, expr.W32), expr.W32) }, "P"},
		{"never used", 4, func(b *FuncBuilder, a int) {}, "P"},
		{"odd size", 3, func(b *FuncBuilder, a int) { b.Load(a, expr.W8) }, "M"},
		{"sixteen bytes", 16, func(b *FuncBuilder, a int) { b.Load(a, expr.W64) }, "M"},
		{"narrow load", 4, func(b *FuncBuilder, a int) { b.Load(a, expr.W8) }, "M"},
		{"wide store", 4, func(b *FuncBuilder, a int) { b.Store(a, b.Const(0, expr.W64), expr.W64) }, "M"},
		{"stored as a value", 8, func(b *FuncBuilder, a int) { b.Store(b.GlobalAddr("g"), a, expr.W64) }, "M"},
		{"call argument", 4, func(b *FuncBuilder, a int) { b.CallVoid("sink", a) }, "M"},
		{"mov", 4, func(b *FuncBuilder, a int) { b.Mov(a) }, "M"},
		{"arithmetic", 4, func(b *FuncBuilder, a int) { b.Bin(OpAdd, a, a, expr.W64) }, "M"},
		{"conversion", 4, func(b *FuncBuilder, a int) { b.Conv(OpTrunc, a, expr.W32) }, "M"},
		{"select", 4, func(b *FuncBuilder, a int) { b.Select(b.Const(1, expr.W1), a, a) }, "M"},
		{"assert", 4, func(b *FuncBuilder, a int) { b.Assert(a, "x") }, "M"},
		{"ret", 4, func(b *FuncBuilder, a int) { b.Ret(a); b.SetBlock(b.NewBlock()) }, "M"},
		{"condbr", 4, func(b *FuncBuilder, a int) {
			next := b.NewBlock()
			b.CondBr(a, next, next)
			b.SetBlock(next)
		}, "M"},
		{"address register written twice", 4, func(b *FuncBuilder, a int) {
			b.MovTo(a, b.GlobalAddr("g"))
			b.Load(a, expr.W32)
		}, "M"},
		{"address register reused for another slot", 4, func(b *FuncBuilder, a int) {
			b.Func().Blocks[0].Instrs = append(b.Func().Blocks[0].Instrs,
				Instr{Op: OpFrameAddr, A: a, Imm: b.Alloca(4)})
			b.Load(a, expr.W32)
		}, "MM"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewProgram("t")
			p.AddGlobal("g", 8, nil)
			b := NewFuncBuilder("f", 0)
			c.use(b, b.FrameAddr(b.Alloca(c.size)))
			b.Ret(-1)
			p.Funcs["f"] = b.Func()
			p.PromoteSlots()
			if got := promoted(b.Func()); got != c.want {
				t.Errorf("slot is %s, want %s:\n%s", got, c.want, b.Func().Disasm())
			}
			if err := p.Validate(func(s string) bool { return s == "sink" }); err != nil {
				t.Errorf("validate: %v", err)
			}
		})
	}
}

func TestValidatePromotedForm(t *testing.T) {
	build := func(mutate func(f *Func)) error {
		f := buildCounter()
		p := NewProgram("t")
		p.Funcs[f.Name] = f
		p.PromoteSlots()
		mutate(f)
		return p.Validate(nil)
	}
	instrs := func(f *Func) []Instr { return f.Blocks[0].Instrs }
	find := func(f *Func, op Opcode) *Instr {
		for i := range instrs(f) {
			if instrs(f)[i].Op == op {
				return &instrs(f)[i]
			}
		}
		return nil
	}
	cases := []struct {
		name   string
		mutate func(f *Func)
		errHas string
	}{
		{"as promoted", func(f *Func) {}, ""},
		{"frameaddr of a promoted slot", func(f *Func) { find(f, OpFrameAddr).Imm = 0 }, "promoted and has no address"},
		{"promoted register written by a mov", func(f *Func) { find(f, OpMov).A = f.SlotRegs[0] }, "promoted slot 0"},
		{"slotstore into an ordinary register", func(f *Func) { find(f, OpSlotStore).A = 0 }, "no promoted slot's"},
		{"slotstore of another width", func(f *Func) { find(f, OpSlotStore).W = expr.W32 }, "width 32"},
		{"slotstore operand out of range", func(f *Func) { find(f, OpSlotStore).B = 99 }, "out of range"},
		{"slot register not the function's last", func(f *Func) { f.SlotRegs[0]-- }, "promoted to register"},
		{"slot register out of range", func(f *Func) { f.SlotRegs[0] = f.NumRegs }, "promoted to register"},
		{"slot register is a parameter", func(f *Func) { f.NumParams = f.NumRegs }, "above 15 parameters"},
		{"array promoted", func(f *Func) { f.Slots[0] = 3 }, "3 bytes promoted"},
		{"two slots in one register", func(f *Func) { f.SlotRegs[2] = f.SlotRegs[0] }, "promoted to register"},
		{"slot registers of another length", func(f *Func) { f.SlotRegs = f.SlotRegs[:2] }, "2 slot registers for 3 slots"},
	}
	for _, c := range cases {
		err := build(c.mutate)
		switch {
		case c.errHas == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.errHas != "" && (err == nil || !strings.Contains(err.Error(), c.errHas)):
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.errHas)
		}
	}
}
