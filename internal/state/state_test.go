package state

import (
	"fmt"
	"strings"
	"testing"

	"cloud9/internal/cvm"
	"cloud9/internal/expr"
	"cloud9/internal/mem"
)

// tinyProgram builds a minimal valid program: main with one array slot,
// worker with a parameter, and leaf with two scalar slots around an
// array, promoted as cc.Compile would.
func tinyProgram(t testing.TB) *cvm.Program {
	t.Helper()
	p := unpromotedTinyProgram(t)
	p.PromoteSlots()
	if err := p.Validate(nil); err != nil {
		t.Fatal(err)
	}
	return p
}

func unpromotedTinyProgram(t testing.TB) *cvm.Program {
	t.Helper()
	p := cvm.NewProgram("t")
	p.AddGlobal("g", 8, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	b := cvm.NewFuncBuilder("main", 0)
	b.Alloca(16)
	r := b.Const(0, expr.W32)
	b.Ret(r)
	p.Funcs["main"] = b.Func()

	b2 := cvm.NewFuncBuilder("worker", 1)
	b2.Ret(0)
	p.Funcs["worker"] = b2.Func()

	b3 := cvm.NewFuncBuilder("leaf", 0)
	n := b3.Alloca(4)
	b3.Alloca(16)
	m := b3.Alloca(8)
	b3.Store(b3.FrameAddr(n), b3.Const(1, expr.W32), expr.W32)
	b3.Store(b3.FrameAddr(m), b3.Const(2, expr.W64), expr.W64)
	b3.Ret(b3.Load(b3.FrameAddr(n), expr.W32))
	p.Funcs["leaf"] = b3.Func()
	if err := p.Validate(nil); err != nil {
		t.Fatal(err)
	}
	return p
}

func newState(t *testing.T) *S {
	t.Helper()
	s, err := New(tinyProgram(t), "main")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStateLayout(t *testing.T) {
	s := newState(t)
	if len(s.Procs) != 1 || len(s.Threads) != 1 {
		t.Fatal("initial state should have one process and one thread")
	}
	if s.Globals["g"] == 0 {
		t.Fatal("global not allocated")
	}
	ct := s.CurThread()
	if ct == nil || len(ct.Stack) != 1 || ct.Top().Fn.Name != "main" {
		t.Fatal("entry frame missing")
	}
	if len(ct.Top().SlotObjs) != 1 {
		t.Fatal("stack slot not allocated")
	}
	// Global contents initialized.
	_, os, off, ok := s.Resolve(ct.Proc, s.Globals["g"])
	if !ok || off != 0 {
		t.Fatal("global unresolvable")
	}
	if os.Read(0, expr.W8).ConstVal() != 1 {
		t.Fatal("global init bytes")
	}
}

func TestMissingEntry(t *testing.T) {
	if _, err := New(tinyProgram(t), "nope"); err == nil {
		t.Fatal("missing entry should error")
	}
}

func TestGlobalAddressesIdenticalAcrossStates(t *testing.T) {
	a := newState(t)
	b := newState(t)
	if a.Globals["g"] != b.Globals["g"] {
		t.Fatal("global addresses must be deterministic")
	}
}

func TestForkIsolation(t *testing.T) {
	s := newState(t)
	tid := s.Cur
	addr := s.Threads[tid].Top().SlotObjs[0].Base

	child := s.Fork(2)
	// Write in the child; parent must not see it.
	space, os, off, _ := child.Resolve(child.CurThread().Proc, addr)
	w := space.Writable(os)
	w.Write(off, expr.Const(0xbeef, expr.W16))

	_, pos, poff, _ := s.Resolve(s.CurThread().Proc, addr)
	if got := pos.Read(poff, expr.W16); got.ConstVal() == 0xbeef {
		t.Fatal("fork did not isolate memory")
	}
	// Registers and stacks are independent too.
	child.CurThread().Top().Regs[0] = expr.Const(9, expr.W32)
	if s.CurThread().Top().Regs[0] != nil {
		t.Fatal("register fork leak")
	}

	// A frame below the top is shared by the fork. The child returns into
	// it and writes a register there; the parent, still in the callee,
	// must find its caller's register as it left it when it returns too.
	th := s.CurThread()
	th.Top().Regs[0] = expr.Const(1, expr.W32)
	if _, err := s.PushFrame(th, s.Prog.Func("main"), 0, 0); err != nil {
		t.Fatal(err)
	}
	child = s.Fork(3)
	cth := child.CurThread()
	if cth.Stack[0] != th.Stack[0] {
		t.Fatal("the frame below the top should be shared, not copied")
	}
	child.PopFrame(cth)
	cth.Top().Regs[0] = expr.Const(2, expr.W32)
	s.PopFrame(th)
	if got := th.Top().Regs[0].ConstVal(); got != 1 {
		t.Fatalf("parent's caller register = %d after the child wrote the shared frame, want 1", got)
	}
	if th.Top() == cth.Top() {
		t.Fatal("both stacks returned into the same frame")
	}
}

// deepFork is the eager fork this package had before frames were shared:
// every frame of every stack copied, slot lists included. The oracle the
// shared-until-written Fork is held to.
func deepFork(s *S, newID uint64) *S {
	dup := *s
	dup.ID = newID
	dup.Term, dup.TermMsg = TermNone, ""
	dup.Shared = s.Shared.Clone()
	dup.Alloc = s.Alloc.Clone()
	dup.Procs = map[ProcessID]*Process{}
	for id, p := range s.Procs {
		dup.Procs[id] = p.Clone()
	}
	dup.Threads = map[ThreadID]*Thread{}
	for id, t := range s.Threads {
		dup.Threads[id] = deepCloneThread(t)
	}
	dup.WaitLists = map[uint64][]ThreadID{}
	for id, q := range s.WaitLists {
		dup.WaitLists[id] = append([]ThreadID(nil), q...)
	}
	dup.waitShared = false
	dup.Output.Bytes = append([]byte(nil), s.Output.Bytes...)
	dup.Aux = map[string]interface{}{}
	for k, v := range s.Aux {
		if c, ok := v.(AuxCloner); ok {
			v = c.CloneAux()
		}
		dup.Aux[k] = v
	}
	dup.Symbolics = append([]SymbolicRegion(nil), s.Symbolics...)
	return &dup
}

func deepCloneThread(t *Thread) *Thread {
	dup := *t
	dup.Stack = make([]*Frame, len(t.Stack))
	for i, f := range t.Stack {
		df := *f
		df.Regs = append([]*expr.Expr(nil), f.Regs...)
		df.SlotObjs = append([]*mem.Object(nil), f.SlotObjs...)
		df.shared = false
		dup.Stack[i] = &df
	}
	dup.Joiners = append([]ThreadID(nil), t.Joiners...)
	return &dup
}

// deepForkProcess is ForkProcess with the calling thread deep-copied.
func deepForkProcess(s *S, calling ThreadID) {
	saved := s.Threads[calling]
	s.Threads[calling] = deepCloneThread(saved) // what ForkProcess clones shares nothing with saved
	_, ctid := s.ForkProcess(calling)
	s.Threads[ctid] = deepCloneThread(s.Threads[ctid])
	s.Threads[calling] = saved
}

// dump renders everything of s a program can observe: per thread every
// frame's function, position, return register and registers; per
// address space every object's base, size and bytes; the wait queues
// and the output.
func dump(s *S) string {
	var b strings.Builder
	for wl := uint64(1); wl < s.NextWlist; wl++ {
		fmt.Fprintf(&b, "wlist %d %v\n", wl, s.WaitLists[wl])
	}
	fmt.Fprintf(&b, "output %q\n", s.Output.Bytes)
	for tid := ThreadID(1); tid < s.NextTID; tid++ {
		th := s.Threads[tid]
		if th == nil {
			continue
		}
		fmt.Fprintf(&b, "thread %d proc %d status %d\n", tid, th.Proc, th.Status)
		for _, f := range th.Stack {
			fmt.Fprintf(&b, "  %s b%d pc%d ret%d", f.Fn.Name, f.Block, f.PC, f.RetReg)
			for _, r := range f.Regs {
				if r == nil {
					b.WriteString(" -")
				} else {
					fmt.Fprintf(&b, " %d", r.ConstVal())
				}
			}
			for _, o := range f.SlotObjs {
				if o != nil {
					fmt.Fprintf(&b, " @%#x", o.Base)
				}
			}
			b.WriteByte('\n')
		}
	}
	space := func(name string, as *mem.AddressSpace) {
		fmt.Fprintf(&b, "space %s\n", name)
		as.Objects(func(os *mem.ObjectState) {
			fmt.Fprintf(&b, "  %#x+%d %x\n", os.Obj.Base, os.Obj.Size, os.ConcreteBytes(nil))
		})
	}
	for pid := ProcessID(1); pid < s.NextPID; pid++ {
		space(fmt.Sprint(pid), s.Procs[pid].Space)
	}
	space("shared", s.Shared)
	return b.String()
}

// forkOps applies the op sequence data encodes to two lineages at once,
// one forked with Fork and ForkProcess, its twin with deepFork and
// deepForkProcess, and after every op holds every live state to its
// twin's dump. One op is two bytes: the op, then its argument.
func forkOps(t *testing.T, data []byte) {
	const maxStates, maxDepth = 8, 8
	got, want := []*S{newState(t)}, []*S{newState(t)}
	cur := 0
	for len(data) >= 2 {
		op, arg := data[0]%8, int(data[1])
		data = data[2:]
		for side, s := range []*S{got[cur], want[cur]} {
			th := s.CurThread()
			live := th.Status != ThreadTerminated
			switch {
			case (op == 0 || op == 6) && live && len(th.Stack) < maxDepth: // call; 6 calls leaf, whose scalars are registers
				fn, nargs := s.Prog.Func("main"), 0
				if op == 6 {
					fn = s.Prog.Func("leaf")
				} else if arg%2 == 1 {
					fn, nargs = s.Prog.Func("worker"), 1
				}
				f, err := s.PushFrame(th, fn, nargs, arg%3-1)
				if err != nil {
					t.Fatal(err)
				}
				zeroed := map[int]bool{}
				for _, r := range fn.SlotRegs {
					zeroed[r] = true
				}
				for i, r := range f.Regs {
					// Both lineages recycle frames, so the twin would agree.
					if zeroed[i] && (r == nil || !r.IsConst() || r.ConstVal() != 0) {
						t.Fatalf("new frame of %s: promoted slot's register %d = %v, want 0", fn.Name, i, r)
					}
					if !zeroed[i] && r != nil {
						t.Fatalf("new frame of %s: register %d is not empty", fn.Name, i)
					}
				}
				for i := 0; i < nargs; i++ {
					f.Regs[i] = expr.Const(uint64(arg), expr.W32)
				}
			case op == 1 && live: // return, as interp.execRet does
				f := th.Top()
				ret, retReg := f.Regs[0], f.RetReg
				s.PopFrame(th)
				if len(th.Stack) == 0 {
					s.TerminateThread(th.ID, ret)
				} else if retReg >= 0 && retReg < len(th.Top().Regs) {
					th.Top().Regs[retReg] = ret
				}
			case op == 2 && live: // register write, a step and a byte of output
				f := th.Top()
				f.Regs[arg%len(f.Regs)] = expr.Const(uint64(arg), expr.W32)
				f.PC++
				f.Block = arg % 3
				s.Output.Bytes = append(s.Output.Bytes, byte(arg))
			case op == 3 && live: // store to a slot of any frame of the stack
				f := th.Stack[arg%len(th.Stack)]
				var obj *mem.Object // the frame's array slot; worker has none
				for _, o := range f.SlotObjs {
					if o != nil {
						obj = o
					}
				}
				if obj == nil {
					break
				}
				space, os, off, ok := s.Resolve(th.Proc, obj.Base+uint64(arg%16))
				if !ok {
					t.Fatalf("slot of a live frame unmapped")
				}
				space.Writable(os).Write(off, expr.Const(uint64(arg), expr.W8))
			case op == 7 && live: // store to a promoted slot, as interp's slotstore does: top frame only
				f := th.Top()
				if slots := f.Fn.Slots; f.Fn.NumPromoted() > 0 {
					for i := arg % len(slots); ; i = (i + 1) % len(slots) {
						if r := f.Fn.SlotReg(i); r >= 0 {
							f.Regs[r] = expr.Const(uint64(arg), expr.Width(8*slots[i]))
							break
						}
					}
				}
			case op == 4 && live && int(s.NextPID) < 4: // process fork, then run either side of it
				if side == 0 {
					s.ForkProcess(s.Cur)
				} else {
					deepForkProcess(s, s.Cur)
				}
				if arg%2 == 1 {
					s.Cur = s.NextTID - 1
				}
			case op == 5 && side == 0 && len(got) < maxStates: // fork, then run any sibling
				got = append(got, got[cur].Fork(uint64(len(got)+1)))
				want = append(want, deepFork(want[cur], uint64(len(want)+1)))
			}
		}
		if op == 5 {
			cur = arg % len(got)
		} else if got[cur].CurThread().Status == ThreadTerminated {
			// The running thread ended: run another, the same on both sides.
			if r := got[cur].Runnable(); len(r) > 0 {
				got[cur].Cur, want[cur].Cur = r[0], r[0]
			}
		}
		for i := range got {
			for _, th := range got[i].Threads {
				if len(th.Stack) > 0 && th.Top().shared {
					t.Fatalf("state %d thread %d: top frame is shared", i, th.ID)
				}
			}
			if g, w := dump(got[i]), dump(want[i]); g != w {
				t.Fatalf("state %d differs from its deep-forked twin after op %d/%d\n--- shared\n%s--- deep\n%s", i, op, arg, g, w)
			}
		}
	}
}

// FuzzForkIsolation: no sequence of calls, returns, writes and forks
// lets one state see what another did through a frame or an object they
// share.
func FuzzForkIsolation(f *testing.F) {
	f.Add([]byte{})
	// Siblings store to a promoted slot of a frame they shared: main calls
	// leaf calls main, fork, both return into leaf and write its registers.
	f.Add([]byte{6, 0, 7, 5, 0, 0, 5, 1, 1, 0, 7, 9, 5, 0, 1, 0, 7, 3, 7, 4, 1, 0})
	f.Fuzz(forkOps)
}

func TestForkPreservesCounters(t *testing.T) {
	s := newState(t)
	s.NewSymbol("x")
	s.NewWaitList()
	child := s.Fork(2)
	if child.NextSym != s.NextSym || child.NextWlist != s.NextWlist {
		t.Fatal("counters must fork")
	}
	// Counters advance independently afterwards.
	child.NewSymbol("y")
	if s.NextSym == child.NextSym {
		t.Fatal("counter entanglement")
	}
}

func TestPathChoices(t *testing.T) {
	var p *PathNode
	p = AppendChoice(p, 1)
	p = AppendChoice(p, 0)
	p = AppendChoice(p, 3)
	got := PathChoices(p)
	if len(got) != 3 || got[0] != 1 || got[1] != 0 || got[2] != 3 {
		t.Fatalf("choices = %v", got)
	}
	if PathChoices(nil) != nil {
		t.Fatal("nil path should be empty")
	}
	// Persistence: extending does not affect the prefix.
	q := AppendChoice(p, 2)
	if len(PathChoices(p)) != 3 || len(PathChoices(q)) != 4 {
		t.Fatal("path persistence")
	}
}

func TestWaitListSleepNotify(t *testing.T) {
	s := newState(t)
	fn := s.Prog.Func("worker")
	t2, err := s.CreateThread(s.CurThread().Proc, fn, []*expr.Expr{expr.Const(0, expr.W64)})
	if err != nil {
		t.Fatal(err)
	}
	wl := s.NewWaitList()
	s.Sleep(t2, wl)
	if s.Threads[t2].Status != ThreadSleeping {
		t.Fatal("thread should sleep")
	}
	if got := s.Runnable(); len(got) != 1 || got[0] != s.Cur {
		t.Fatalf("runnable = %v", got)
	}
	woken := s.Notify(wl, false)
	if len(woken) != 1 || woken[0] != t2 {
		t.Fatalf("woken = %v", woken)
	}
	if s.Threads[t2].Status != ThreadRunnable {
		t.Fatal("thread should wake")
	}
	// Notify on empty list is a no-op.
	if s.Notify(wl, true) != nil {
		t.Fatal("empty notify should wake nobody")
	}
}

func TestNotifyAll(t *testing.T) {
	s := newState(t)
	fn := s.Prog.Func("worker")
	wl := s.NewWaitList()
	var tids []ThreadID
	for i := 0; i < 3; i++ {
		tid, err := s.CreateThread(s.CurThread().Proc, fn, []*expr.Expr{expr.Const(0, expr.W64)})
		if err != nil {
			t.Fatal(err)
		}
		s.Sleep(tid, wl)
		tids = append(tids, tid)
	}
	woken := s.Notify(wl, true)
	if len(woken) != 3 {
		t.Fatalf("woken = %v", woken)
	}
}

func TestThreadTerminationWakesJoiners(t *testing.T) {
	s := newState(t)
	fn := s.Prog.Func("worker")
	t2, _ := s.CreateThread(s.CurThread().Proc, fn, []*expr.Expr{expr.Const(0, expr.W64)})
	// Main joins t2.
	s.Sleep(s.Cur, s.Threads[t2].JoinWlist)
	s.TerminateThread(t2, expr.Const(7, expr.W32))
	if s.Threads[s.Cur].Status != ThreadRunnable {
		t.Fatal("joiner not woken by termination")
	}
	if s.Threads[t2].Result.ConstVal() != 7 {
		t.Fatal("thread result lost")
	}
}

func TestProcessForkSharesNothingPrivate(t *testing.T) {
	s := newState(t)
	parentProc := s.CurThread().Proc
	pid, ctid := s.ForkProcess(s.Cur)
	if pid == parentProc {
		t.Fatal("fork returned parent pid")
	}
	child := s.Threads[ctid]
	if child.Proc != pid {
		t.Fatal("child thread in wrong process")
	}
	if s.Procs[pid].MainThread != ctid {
		t.Fatal("child main thread")
	}
	// Private write in child's space invisible to parent.
	addr := s.Globals["g"]
	space, os, off, _ := s.Resolve(pid, addr)
	w := space.Writable(os)
	w.Write(off, expr.Const(0xff, expr.W8))
	_, pos, poff, _ := s.Resolve(parentProc, addr)
	if pos.Read(poff, expr.W8).ConstVal() == 0xff {
		t.Fatal("process fork did not CoW the address space")
	}
}

func TestMakeSharedVisibleToAllProcesses(t *testing.T) {
	s := newState(t)
	parent := s.CurThread().Proc
	addr := s.Globals["g"]
	if !s.MakeShared(parent, addr) {
		t.Fatal("make_shared failed")
	}
	pid, _ := s.ForkProcess(s.Cur)
	// Write via child; parent must see it (same shared object).
	space, os, off, ok := s.Resolve(pid, addr)
	if !ok {
		t.Fatal("shared object not visible in child")
	}
	w := space.Writable(os)
	w.Write(off, expr.Const(0x55, expr.W8))
	_, pos, poff, _ := s.Resolve(parent, addr)
	if pos.Read(poff, expr.W8).ConstVal() != 0x55 {
		t.Fatal("shared write not visible to parent")
	}
}

func TestExitProcessWakesWaiters(t *testing.T) {
	s := newState(t)
	pid, _ := s.ForkProcess(s.Cur)
	s.Sleep(s.Cur, s.Procs[pid].ExitWlist)
	s.ExitProcess(pid, 42)
	if s.Threads[s.Cur].Status != ThreadRunnable {
		t.Fatal("waiter not woken on exit")
	}
	if !s.Procs[pid].Exited || s.Procs[pid].ExitCode != 42 {
		t.Fatal("exit bookkeeping")
	}
}

func TestLiveThreadsAndTermination(t *testing.T) {
	s := newState(t)
	if s.LiveThreads() != 1 {
		t.Fatal("one live thread expected")
	}
	s.TerminateThread(s.Cur, nil)
	if s.LiveThreads() != 0 {
		t.Fatal("no live threads expected")
	}
	if s.Terminated() {
		t.Fatal("state termination is explicit")
	}
	s.SetTerminated(TermExit, "done")
	if !s.Terminated() || s.Term != TermExit {
		t.Fatal("SetTerminated")
	}
}

// A fork shares the wait lists until one side writes them, and a queue
// with spare capacity is not appended to in place by both.
func TestForkSharesWaitListsUntilWritten(t *testing.T) {
	s := newState(t)
	var tids []ThreadID
	for i := 0; i < 5; i++ {
		tid, err := s.CreateThread(s.CurThread().Proc, s.Prog.Func("worker"), []*expr.Expr{expr.Const(0, expr.W64)})
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	wl := s.NewWaitList()
	for _, tid := range tids[:3] {
		s.Sleep(tid, wl)
	}
	if q := s.WaitLists[wl]; cap(q) == len(q) {
		t.Fatalf("queue %v has no spare capacity: the test needs some", q)
	}
	child := s.Fork(2)
	if fmt.Sprintf("%p", child.WaitLists) != fmt.Sprintf("%p", s.WaitLists) {
		t.Fatal("a fork copied the wait lists before anyone wrote them")
	}
	child.Sleep(tids[3], wl)
	s.Sleep(tids[4], wl)
	if got, want := fmt.Sprint(child.WaitLists[wl]), fmt.Sprint(tids[:4]); got != want {
		t.Errorf("child's queue %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(s.WaitLists[wl]), fmt.Sprint(append(tids[:3:3], tids[4])); got != want {
		t.Errorf("parent's queue %s, want %s", got, want)
	}
	child.Notify(wl, true)
	if len(child.WaitLists[wl]) != 0 || len(s.WaitLists[wl]) != 4 {
		t.Errorf("notify in the child: child %v, parent %v", child.WaitLists[wl], s.WaitLists[wl])
	}
	if s.Threads[tids[0]].Status != ThreadSleeping {
		t.Error("notify in the child woke the parent's thread")
	}
}

// A fork's output is clipped: neither side's appends show in the other.
func TestForkOutputIsolation(t *testing.T) {
	s := newState(t)
	s.Output.Bytes = append(make([]byte, 0, 16), "ab"...)
	child := s.Fork(2)
	s.Output.Bytes = append(s.Output.Bytes, 'p')
	child.Output.Bytes = append(child.Output.Bytes, 'c')
	if string(s.Output.Bytes) != "abp" || string(child.Output.Bytes) != "abc" {
		t.Fatalf("parent %q, child %q; want \"abp\", \"abc\"", s.Output.Bytes, child.Output.Bytes)
	}
}

func TestAuxClonerDeepCopies(t *testing.T) {
	s := newState(t)
	s.SetAux("plain", 42)
	s.SetAux("cloned", &testAux{v: 1})
	child := s.Fork(2)
	child.Aux["cloned"].(*testAux).v = 99
	if s.Aux["cloned"].(*testAux).v != 1 {
		t.Fatal("AuxCloner value not deep-copied")
	}
	if child.Aux["plain"] != 42 {
		t.Fatal("plain aux value lost")
	}
}

type testAux struct{ v int }

func (a *testAux) CloneAux() interface{} { return &testAux{v: a.v} }

func TestPushPopFrameReleasesSlots(t *testing.T) {
	s := newState(t)
	th := s.CurThread()
	fn := s.Prog.Func("main")
	if _, err := s.PushFrame(th, fn, 0, -1); err != nil {
		t.Fatal(err)
	}
	addr := th.Top().SlotObjs[0].Base
	if _, _, _, ok := s.Resolve(th.Proc, addr); !ok {
		t.Fatal("slot should be mapped")
	}
	s.PopFrame(th)
	if _, _, _, ok := s.Resolve(th.Proc, addr); ok {
		t.Fatal("slot should be unmapped after pop")
	}
}

// A promoted slot is a zeroed register and no object, and the allocator
// moves as if it were one: the array between leaf's two scalars, and
// whatever is allocated next, sit where they do with nothing promoted.
func TestPushFramePromotedSlots(t *testing.T) {
	s := newState(t)
	ref, err := New(unpromotedTinyProgram(t), "main")
	if err != nil {
		t.Fatal(err)
	}
	th, rth := s.CurThread(), ref.CurThread()
	leaf := s.Prog.Func("leaf")
	bound := s.CurProc().Space.NumObjects()
	f, err := s.PushFrame(th, leaf, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := ref.PushFrame(rth, ref.Prog.Func("leaf"), 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if f.SlotObjs[0] != nil || f.SlotObjs[2] != nil || *f.SlotObjs[1] != *rf.SlotObjs[1] {
		t.Fatalf("slot objects %v, want only the array, as %+v", f.SlotObjs, rf.SlotObjs[1])
	}
	if got := s.CurProc().Space.NumObjects(); got != bound+1 || ref.CurProc().Space.NumObjects() != bound+3 {
		t.Fatalf("%d objects bound for leaf's frame, want 1 of its 3 slots", got-bound)
	}
	for i, w := range map[int]expr.Width{0: expr.W32, 2: expr.W64} {
		if r := f.Regs[leaf.SlotRegs[i]]; r != expr.Const(0, w) {
			t.Errorf("promoted slot %d starts as %v, want a %d-bit 0", i, r, w)
		}
	}
	if got, want := s.Alloc.Allocate(1, "next"), ref.Alloc.Allocate(1, "next"); *got != *want {
		t.Errorf("the allocation after the frame: %+v, unpromoted %+v", got, want)
	}
	s.PopFrame(th)
	if got := s.CurProc().Space.NumObjects(); got != bound {
		t.Errorf("%d objects bound after the return, %d before the call", got, bound)
	}

	// A callee with nothing but promoted slots gets no slot list at all.
	b := cvm.NewFuncBuilder("scalars", 0)
	b.Store(b.FrameAddr(b.Alloca(1)), b.Const(1, expr.W8), expr.W8)
	b.Ret(-1)
	s.Prog.Funcs["scalars"] = b.Func()
	s.Prog.PromoteSlots()
	if f, err = s.PushFrame(th, b.Func(), 0, -1); err != nil || f.SlotObjs != nil {
		t.Errorf("frame of an all-promoted callee: slot list %v, err %v", f.SlotObjs, err)
	}
}

// wcShaped builds the state a coreutil-wc branch forks: one process, one
// thread, depth frames, about forty bound objects.
func wcShaped(t testing.TB, depth int) *S {
	s, err := New(tinyProgram(t), "main")
	if err != nil {
		t.Fatal(err)
	}
	th := s.CurThread()
	for len(th.Stack) < depth {
		if _, err := s.PushFrame(th, s.Prog.Func("main"), 0, -1); err != nil {
			t.Fatal(err)
		}
	}
	space := s.CurProc().Space
	for space.NumObjects() < 40 {
		space.Bind(mem.NewObjectState(s.Alloc.Allocate(32, "heap")))
	}
	s.Symbolics = []SymbolicRegion{{Name: "stdin", Len: 8}}
	return s
}

// branch is what interp.forkN does to a state at a two-way branch: one
// fork, and the parent lives on as the other child.
func branch(s *S) *S {
	c := s.Fork(s.ID + 1)
	c.Path = AppendChoice(c.Path, 0)
	s.Path = AppendChoice(s.Path, 1)
	return c
}

// A branch costs a fixed number of allocations, whatever the depth of
// the stack below the top frame. The budget is a count, not a timing:
// raise it only with a reason.
func TestForkAllocBudget(t *testing.T) {
	const budget = 16
	var first float64
	for _, depth := range []int{4, 8} {
		s := wcShaped(t, depth)
		n := testing.AllocsPerRun(100, func() { branch(s).Release() })
		if n > budget {
			t.Errorf("depth %d: a branch allocates %.0f times, budget %d", depth, n, budget)
		}
		if first == 0 {
			first = n
		} else if n != first {
			t.Errorf("a branch allocates %.0f times at depth 4 and %.0f at depth %d", first, n, depth)
		}
	}
}

func BenchmarkFork(b *testing.B) {
	s := wcShaped(b, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		branch(s).Release()
	}
}
