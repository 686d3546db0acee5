// Package interp executes CVM programs symbolically. It implements the
// single-node symbolic execution engine semantics: fork-on-branch with
// solver feasibility checks, byte-granular symbolic memory, cooperative
// thread scheduling, the symbolic system call interface of Table 1, and
// hang detection (deadlock and instruction-limit).
package interp

import (
	"fmt"
	"slices"
	"sync/atomic"

	"cloud9/internal/cvm"
	"cloud9/internal/expr"
	"cloud9/internal/mem"
	"cloud9/internal/solver"
	"cloud9/internal/state"
)

// Stats counts interpreter activity.
type Stats struct {
	Instructions uint64
	Forks        uint64
	BranchForks  uint64
	SchedForks   uint64
	DecideForks  uint64
}

// Interp executes states of one program. One Interp per worker; it owns
// the worker's solver.
type Interp struct {
	Prog     *cvm.Program
	Solver   *solver.Solver
	Builtins map[string]Builtin
	Stats    Stats

	// OnCover, when set, is the coverage feed: Advance calls it with an
	// executed instruction's source line when that line differs from the
	// last one it reported, so once per run of instructions on one line,
	// and again when the line is re-entered later. Recording a line twice
	// must therefore change nothing.
	OnCover func(line int)

	nextStateID uint64

	// callCtx and callArgs are execCall's, reused from one builtin call to
	// the next: no builtin keeps its Ctx or argument slice past its return.
	callCtx  Ctx
	callArgs []*expr.Expr
}

// New creates an interpreter for prog with the core builtins registered.
func New(prog *cvm.Program) *Interp {
	in := &Interp{
		Prog:        prog,
		Solver:      solver.New(),
		Builtins:    map[string]Builtin{},
		nextStateID: 1,
	}
	registerCore(in)
	return in
}

// Register adds a builtin (the POSIX model installs its primitives here).
func (in *Interp) Register(name string, minArgs int,
	fn func(c *Ctx, args []*expr.Expr) (*expr.Expr, error)) {
	in.Builtins[name] = Builtin{Fn: fn, MinArgs: minArgs}
}

// NewStateID issues a worker-local state identifier.
func (in *Interp) NewStateID() uint64 {
	return atomic.AddUint64(&in.nextStateID, 1)
}

// InitialState builds the root state at function entry.
func (in *Interp) InitialState(entry string) (*state.S, error) {
	return state.New(in.Prog, entry)
}

// Advance runs s until it forks or terminates.
//
// Returns (children, nil) on a fork: the children (each with its path
// extended by one choice) replace s, which lives on as the last of them.
// Returns (nil, nil) when s terminated; inspect s.Term.
// An error means the engine itself failed (solver budget, bad IR).
//
// The thread, frame and block's instructions are fetched once per block
// entry: only a terminator or a call (which may push a frame, end or
// switch the thread) moves them, and a fork or termination ends the run.
func (in *Interp) Advance(s *state.S) ([]*state.S, error) {
	cover := in.OnCover
	line := 0 // the line cover last heard of
	for !s.Terminated() {
		t := s.CurThread()
		if t == nil || t.Status != state.ThreadRunnable {
			children, err := in.reschedule(s)
			if children != nil || err != nil {
				return children, err
			}
			continue
		}
		f := t.Top()
		instrs := f.Fn.Blocks[f.Block].Instrs
		for {
			if f.PC >= len(instrs) {
				return nil, fmt.Errorf("interp: fell off block %d of %s", f.Block, f.Fn.Name)
			}
			instr := &instrs[f.PC]
			f.PC++
			s.Steps++
			in.Stats.Instructions++
			if ln := instr.Line; ln != line && ln > 0 && cover != nil {
				line = ln
				cover(ln)
			}
			if s.MaxSteps > 0 && s.Steps > s.MaxSteps {
				s.SetTerminated(state.TermHang, "instruction limit exceeded (possible infinite loop)")
				return nil, nil
			}
			children, err := in.exec(s, t, f, instr)
			if children != nil || err != nil {
				return children, err
			}
			if instr.Op.IsTerminator() || instr.Op == cvm.OpCall || s.Terminated() {
				break
			}
		}
	}
	return nil, nil
}

// reschedule picks the next thread to run when the current one cannot
// continue. May fork (ForkSched) or terminate the state.
func (in *Interp) reschedule(s *state.S) ([]*state.S, error) {
	runnable := s.Runnable()
	if len(runnable) == 0 {
		if s.LiveThreads() == 0 {
			s.SetTerminated(state.TermExit, "all threads finished")
		} else {
			s.SetTerminated(state.TermHang, "deadlock: all threads sleeping")
		}
		return nil, nil
	}
	if len(runnable) == 1 {
		s.Cur = runnable[0]
		return nil, nil
	}
	if s.ForkSched {
		in.Stats.SchedForks++
		return in.forkN(s, len(runnable), func(child *state.S, i int) {
			child.Cur = runnable[i]
		}), nil
	}
	// Deterministic round-robin: first runnable id greater than the
	// current thread, wrapping.
	for _, id := range runnable {
		if id > s.Cur {
			s.Cur = id
			return nil, nil
		}
	}
	s.Cur = runnable[0]
	return nil, nil
}

// forkN turns s into n children: n-1 forks of it, then s itself under a
// new id, so a branch copies one state, not two. init fixes up each
// child with its choice index.
func (in *Interp) forkN(s *state.S, n int, init func(child *state.S, i int)) []*state.S {
	in.Stats.Forks++
	children := make([]*state.S, n)
	for i := range children {
		c := s
		if i < n-1 {
			c = s.Fork(in.NewStateID())
		} else {
			c.ID = in.NewStateID()
		}
		c.Forks++
		c.Path = state.AppendChoice(c.Path, uint8(i))
		c.HasDecision = false
		init(c, i)
		children[i] = c
	}
	return children
}

// exec executes one instruction. Non-nil children means the state forked
// (s is the last child). Engine errors are returned as err; program errors
// terminate the state instead.
func (in *Interp) exec(s *state.S, t *state.Thread, f *state.Frame, instr *cvm.Instr) (children []*state.S, err error) {
	switch instr.Op {
	case cvm.OpNop:
	case cvm.OpConst:
		f.Regs[instr.A] = expr.Const(uint64(instr.Imm), instr.W)
	case cvm.OpMov:
		f.Regs[instr.A] = f.Regs[instr.B]
	case cvm.OpZExt:
		f.Regs[instr.A] = expr.ZExt(f.Regs[instr.B], instr.W)
	case cvm.OpSExt:
		f.Regs[instr.A] = expr.SExt(f.Regs[instr.B], instr.W)
	case cvm.OpTrunc:
		f.Regs[instr.A] = expr.Extract(f.Regs[instr.B], 0, instr.W)
	case cvm.OpNe:
		l, r := f.Regs[instr.B], f.Regs[instr.C]
		f.Regs[instr.A] = expr.Ne(l, r)
	case cvm.OpUDiv, cvm.OpSDiv, cvm.OpURem, cvm.OpSRem:
		return in.execDiv(s, t, f, instr)
	case cvm.OpFrameAddr:
		f.Regs[instr.A] = expr.Const(f.SlotObjs[instr.Imm].Base, expr.W64)
	case cvm.OpGlobalAddr:
		base, ok := s.Globals[instr.Sym]
		if !ok {
			return nil, fmt.Errorf("interp: unknown global %q", instr.Sym)
		}
		f.Regs[instr.A] = expr.Const(base, expr.W64)
	case cvm.OpLoad:
		return in.execLoad(s, t, f, instr)
	case cvm.OpStore:
		return in.execStore(s, t, f, instr)
	case cvm.OpSlotStore:
		val := f.Regs[instr.B]
		if val.Width() != instr.W {
			return nil, fmt.Errorf("interp: %s stores a %d-bit value into a promoted %d-bit slot",
				f.Fn.Name, val.Width(), instr.W)
		}
		f.Regs[instr.A] = mem.StoredValue(val)
	case cvm.OpBr:
		f.Block = int(instr.Imm)
		f.PC = 0
	case cvm.OpCondBr:
		return in.execCondBr(s, t, f, instr)
	case cvm.OpRet:
		return in.execRet(s, t, f, instr)
	case cvm.OpCall:
		return in.execCall(s, t, f, instr)
	case cvm.OpSelect:
		return in.execSelect(s, t, f, instr)
	case cvm.OpAssert:
		return in.execAssert(s, t, f, instr)
	case cvm.OpError:
		s.SetTerminated(state.TermError, instr.Sym)
	default:
		if op, ok := instr.Op.ExprOp(); ok {
			l, r := f.Regs[instr.B], f.Regs[instr.C]
			f.Regs[instr.A] = expr.Binary(op, l, r)
			return nil, nil
		}
		return nil, fmt.Errorf("interp: unimplemented opcode %v", instr.Op)
	}
	return nil, nil
}

// execDiv guards division by a possibly-zero symbolic divisor, forking an
// error path when zero is feasible.
func (in *Interp) execDiv(s *state.S, t *state.Thread, f *state.Frame, instr *cvm.Instr) ([]*state.S, error) {
	l, r := f.Regs[instr.B], f.Regs[instr.C]
	if r.IsConst() {
		if r.ConstVal() == 0 {
			s.SetTerminated(state.TermError, "division by zero")
			return nil, nil
		}
		op, _ := instr.Op.ExprOp()
		f.Regs[instr.A] = expr.Binary(op, l, r)
		return nil, nil
	}
	zero := expr.Const(0, r.Width())
	isZero := expr.Eq(r, zero)
	mayZero, mayNonZero, err := in.Solver.Fork(s.Constraints, isZero)
	if err != nil {
		return nil, err
	}
	op, _ := instr.Op.ExprOp()
	switch {
	case mayZero && mayNonZero:
		in.Stats.BranchForks++
		// PC already advanced; the non-error child recomputes the result.
		pcB, pcPC := f.Block, f.PC
		return in.forkN(s, 2, func(child *state.S, i int) {
			cf := child.CurThread().Top()
			cf.Block, cf.PC = pcB, pcPC
			if i == 0 {
				child.Constraints = child.Constraints.Append(isZero)
				child.SetTerminated(state.TermError, "division by zero")
			} else {
				child.Constraints = child.Constraints.Append(expr.Not(isZero))
				cf.Regs[instr.A] = expr.Binary(op, l, r)
			}
		}), nil
	case mayZero:
		s.SetTerminated(state.TermError, "division by zero")
		return nil, nil
	default:
		f.Regs[instr.A] = expr.Binary(op, l, r)
		return nil, nil
	}
}

// evalUnder evaluates e under model; variables the model leaves unbound
// (unconstrained so far, so any value works) read as 0. The model is
// shared, so the zeros go into a clone.
func evalUnder(e *expr.Expr, model expr.Assignment) uint64 {
	v, ok := e.Eval(model)
	if !ok {
		full := slices.Clone(model)
		for _, id := range e.VarIDs() {
			if _, bound := full.Get(id); !bound {
				full.Set(id, 0)
			}
		}
		v, _ = e.Eval(full)
	}
	return v
}

// checkSymbolicBounds turns an address expression into the concrete
// address the access proceeds at. A constant is returned as is. For a
// symbolic address it locates the object a feasible address value a0
// (the one the set's model gives) falls in and, when an out-of-bounds
// value is also feasible, forks an error path carrying the violating
// inputs (KLEE's bounds-checked pointer resolution). Returns non-nil
// children on fork; the in-bounds child re-executes the access. When
// every feasible value is in bounds, it pins addrE == a0 with a path
// constraint and returns a0.
func (in *Interp) checkSymbolicBounds(s *state.S, t *state.Thread, f *state.Frame,
	addrE *expr.Expr, size int64, kind string) (uint64, []*state.S, error) {
	if addrE.IsConst() {
		return addrE.ConstVal(), nil, nil
	}
	model, sat, err := in.Solver.Solve(s.Constraints)
	if err != nil {
		return 0, nil, err
	}
	if !sat {
		s.SetTerminated(state.TermUnsatPath, "symbolic address on infeasible path")
		return 0, nil, nil
	}
	a0 := evalUnder(addrE, model)
	_, os, _, found := s.Resolve(t.Proc, a0)
	if !found {
		s.SetTerminated(state.TermError,
			fmt.Sprintf("memory error: out-of-bounds %s at %#x in %s", kind, a0, f.Fn.Name))
		return 0, nil, nil
	}
	obj := os.Obj
	inBounds := expr.LAnd(
		expr.Ule(expr.Const(obj.Base, expr.W64), addrE),
		expr.Ule(addrE, expr.Const(obj.End()-uint64(size), expr.W64)))
	mayIn, mayOOB, err := in.Solver.Fork(s.Constraints, inBounds)
	if err != nil {
		return 0, nil, err
	}
	if !mayOOB {
		// Fully in bounds; the access proceeds at a0.
		s.Constraints = s.Constraints.Append(expr.Eq(addrE, expr.Const(a0, addrE.Width())))
		return a0, nil, nil
	}
	if !mayIn {
		s.SetTerminated(state.TermError,
			fmt.Sprintf("memory error: symbolic %s outside %s in %s", kind, obj.Name, f.Fn.Name))
		return 0, nil, nil
	}
	// Both feasible: fork an error path; the ok path re-executes the
	// access under the in-bounds constraint.
	in.Stats.BranchForks++
	fname := f.Fn.Name
	return 0, in.forkN(s, 2, func(child *state.S, i int) {
		cf := child.CurThread().Top()
		if i == 0 {
			child.Constraints = child.Constraints.Append(expr.Not(inBounds))
			child.SetTerminated(state.TermError,
				fmt.Sprintf("memory error: out-of-bounds symbolic %s in %s", kind, fname))
		} else {
			child.Constraints = child.Constraints.Append(inBounds)
			cf.PC-- // re-execute the access
		}
	}), nil
}

func (in *Interp) execLoad(s *state.S, t *state.Thread, f *state.Frame, instr *cvm.Instr) ([]*state.S, error) {
	addrE := f.Regs[instr.B]
	size := int64(instr.W.Bytes())
	addr, kids, err := in.checkSymbolicBounds(s, t, f, addrE, size, "read")
	if kids != nil || err != nil || s.Terminated() {
		return kids, err
	}
	_, os, off, ok := s.Resolve(t.Proc, addr)
	if !ok || off+size > os.Obj.Size {
		s.SetTerminated(state.TermError,
			fmt.Sprintf("memory error: out-of-bounds read of %d bytes at %#x in %s",
				size, addr, f.Fn.Name))
		return nil, nil
	}
	f.Regs[instr.A] = os.Read(off, instr.W)
	return nil, nil
}

func (in *Interp) execStore(s *state.S, t *state.Thread, f *state.Frame, instr *cvm.Instr) ([]*state.S, error) {
	addrE := f.Regs[instr.A]
	val := f.Regs[instr.B]
	size := int64(val.Width().Bytes())
	addr, kids, err := in.checkSymbolicBounds(s, t, f, addrE, size, "write")
	if kids != nil || err != nil || s.Terminated() {
		return kids, err
	}
	space, os, off, ok := s.Resolve(t.Proc, addr)
	if !ok || off+size > os.Obj.Size {
		s.SetTerminated(state.TermError,
			fmt.Sprintf("memory error: out-of-bounds write of %d bytes at %#x in %s",
				size, addr, f.Fn.Name))
		return nil, nil
	}
	w := space.Writable(os)
	w.Write(off, val)
	return nil, nil
}

func (in *Interp) execCondBr(s *state.S, t *state.Thread, f *state.Frame, instr *cvm.Instr) ([]*state.S, error) {
	cond := f.Regs[instr.A]
	thenB, elseB := int(instr.Imm), int(instr.Imm2)
	if cond.IsConst() {
		if cond.ConstVal() != 0 {
			f.Block, f.PC = thenB, 0
		} else {
			f.Block, f.PC = elseB, 0
		}
		return nil, nil
	}
	mayT, mayF, err := in.Solver.Fork(s.Constraints, cond)
	if err != nil {
		return nil, err
	}
	switch {
	case mayT && mayF:
		in.Stats.BranchForks++
		return in.forkN(s, 2, func(child *state.S, i int) {
			cf := child.CurThread().Top()
			if i == 0 {
				child.Constraints = child.Constraints.Append(expr.Not(cond))
				cf.Block, cf.PC = elseB, 0
			} else {
				child.Constraints = child.Constraints.Append(cond)
				cf.Block, cf.PC = thenB, 0
			}
		}), nil
	case mayT:
		f.Block, f.PC = thenB, 0
	case mayF:
		f.Block, f.PC = elseB, 0
	default:
		s.SetTerminated(state.TermUnsatPath, "infeasible path reached")
	}
	return nil, nil
}

func (in *Interp) execRet(s *state.S, t *state.Thread, f *state.Frame, instr *cvm.Instr) ([]*state.S, error) {
	var ret *expr.Expr
	if instr.A >= 0 {
		ret = f.Regs[instr.A]
	}
	retReg := f.RetReg // PopFrame hands f to the next call
	s.PopFrame(t)
	if len(t.Stack) == 0 {
		// Thread entry returned.
		proc := s.Procs[t.Proc]
		s.TerminateThread(t.ID, ret)
		if proc.MainThread == t.ID && !proc.Exited {
			code := int64(0)
			if ret != nil && ret.IsConst() {
				code = int64(ret.ConstVal())
			}
			s.ExitProcess(proc.ID, code)
		}
		return nil, nil // reschedule happens at loop top
	}
	if retReg >= 0 {
		if ret == nil {
			ret = expr.Const(0, expr.W32)
		}
		t.Top().Regs[retReg] = ret
	}
	return nil, nil
}

func (in *Interp) execSelect(s *state.S, t *state.Thread, f *state.Frame, instr *cvm.Instr) ([]*state.S, error) {
	cond := f.Regs[instr.B]
	f.Regs[instr.A] = expr.Ite(cond, f.Regs[instr.C], f.Regs[instr.D])
	return nil, nil
}

func (in *Interp) execAssert(s *state.S, t *state.Thread, f *state.Frame, instr *cvm.Instr) ([]*state.S, error) {
	cond := f.Regs[instr.A]
	if cond.IsConst() {
		if cond.ConstVal() == 0 {
			s.SetTerminated(state.TermError, "assertion failed: "+instr.Sym)
		}
		return nil, nil
	}
	mayHold, mayFail, err := in.Solver.Fork(s.Constraints, cond)
	if err != nil {
		return nil, err
	}
	if !mayFail {
		return nil, nil
	}
	if !mayHold {
		s.SetTerminated(state.TermError, "assertion failed: "+instr.Sym)
		return nil, nil
	}
	// Both feasible: fork an error path carrying the violating inputs.
	in.Stats.BranchForks++
	msg := instr.Sym
	return in.forkN(s, 2, func(child *state.S, i int) {
		if i == 0 {
			child.Constraints = child.Constraints.Append(expr.Not(cond))
			child.SetTerminated(state.TermError, "assertion failed: "+msg)
		} else {
			child.Constraints = child.Constraints.Append(cond)
		}
	}), nil
}

func (in *Interp) execCall(s *state.S, t *state.Thread, f *state.Frame, instr *cvm.Instr) (children []*state.S, err error) {
	if callee := instr.Callee; callee != nil {
		cf, err := s.PushFrame(t, callee, len(instr.Args), instr.A)
		if err != nil {
			return nil, err
		}
		for i, r := range instr.Args {
			cf.Regs[i] = f.Regs[r]
		}
		return nil, nil
	}
	b, ok := in.Builtins[instr.Sym]
	if !ok {
		return nil, fmt.Errorf("interp: call to unknown function %q", instr.Sym)
	}
	if len(instr.Args) < b.MinArgs {
		return nil, fmt.Errorf("interp: builtin %q called with %d args, want >= %d",
			instr.Sym, len(instr.Args), b.MinArgs)
	}
	args := in.callArgs[:0]
	for _, r := range instr.Args {
		args = append(args, f.Regs[r])
	}
	in.callArgs = args
	ctx := &in.callCtx
	*ctx = Ctx{In: in, S: s, T: t}

	var result *expr.Expr
	var callErr error
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			sig, ok := r.(decideSignal)
			if !ok {
				panic(r)
			}
			in.Stats.DecideForks++
			// Re-execute the call in each child with a predetermined
			// decision.
			f.PC--
			pcB, pcPC := f.Block, f.PC
			children = in.forkN(s, sig.n, func(child *state.S, i int) {
				cf := child.CurThread().Top()
				cf.Block, cf.PC = pcB, pcPC
				child.Decision = i
				child.HasDecision = true
			})
		}()
		result, callErr = b.Fn(ctx, args)
	}()
	// The reused context must not pin the state once the call is over.
	eff := *ctx
	*ctx = Ctx{}
	if children != nil {
		return children, nil
	}
	if callErr != nil {
		// Builtin-reported program error: terminate the path.
		s.SetTerminated(state.TermError, fmt.Sprintf("%s: %v", instr.Sym, callErr))
		return nil, nil
	}
	if instr.A >= 0 {
		if result == nil {
			result = expr.Const(0, expr.W32)
		}
		f.Regs[instr.A] = result
	}
	// Apply control effects requested by the builtin.
	if eff.termState != nil {
		s.SetTerminated(eff.termState.kind, eff.termState.msg)
		return nil, nil
	}
	if eff.termProc != nil {
		s.ExitProcess(t.Proc, *eff.termProc)
		return nil, nil
	}
	if eff.termThr {
		s.TerminateThread(t.ID, result)
		return nil, nil
	}
	if eff.sleepOn != nil {
		s.Sleep(t.ID, *eff.sleepOn)
		return nil, nil
	}
	if eff.preempt {
		// Voluntary preemption point: a scheduling decision.
		runnable := s.Runnable()
		if len(runnable) > 1 {
			if s.ForkSched {
				// Iterative context bounding (§5.1): once the path has
				// used its preemption budget, deny the preemption and
				// keep running the current thread deterministically.
				if s.SchedBound > 0 && s.CtxSwitches >= s.SchedBound {
					return nil, nil
				}
				prev := s.Cur
				in.Stats.SchedForks++
				return in.forkN(s, len(runnable), func(child *state.S, i int) {
					child.Cur = runnable[i]
					if runnable[i] != prev {
						child.CtxSwitches++
					}
				}), nil
			}
			for _, id := range runnable {
				if id > s.Cur {
					s.Cur = id
					return nil, nil
				}
			}
			s.Cur = runnable[0]
		}
	}
	return nil, nil
}
