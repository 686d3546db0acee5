// Package state models one symbolic execution state: a set of processes
// (each with its own copy-on-write address space), cooperative threads
// with call stacks, a shared CoW domain for inter-process memory, wait
// queues, the path condition, and the branch-choice path from the root of
// the execution tree (the job encoding used for worker-to-worker
// transfers).
//
// Processes and threads live in tables indexed by id: ids are dense from
// 1 and slot 0 is always nil. Code that holds an id the engine issued
// indexes the table; an id that comes from the guest goes through Proc
// or Thread, which answer nil for any id out of range.
//
// A fork of a state with one process and one thread allocates seven
// times: one block for the state, its shared domain and both tables; one
// for the process and its address space; the space's object slice; the
// thread; its stack slice; and the top frame and its registers when no
// popped frame is free to reuse. Everything else is shared copy-on-write
// or persistent.
package state

import (
	"fmt"
	"slices"

	"cloud9/internal/cvm"
	"cloud9/internal/expr"
	"cloud9/internal/mem"
	"cloud9/internal/solver"
)

// ProcessID identifies a process within a state.
type ProcessID int

// ThreadID identifies a thread within a state.
type ThreadID int

// ThreadStatus is the scheduler-visible thread state.
type ThreadStatus int

// Thread statuses.
const (
	ThreadRunnable ThreadStatus = iota
	ThreadSleeping
	ThreadTerminated
)

// Frame is one activation record. Only the top frame of a stack is ever
// written, and it is always owned by that stack alone; the frames below
// it may be shared with forked stacks (see Thread.clone). A promoted
// stack slot (cvm.Func.SlotRegs) is one of Regs and obeys the same rule:
// only its own frame's instructions write it.
type Frame struct {
	Fn       *cvm.Func
	Regs     []*expr.Expr
	Block    int
	PC       int
	SlotObjs []*mem.Object // memory object per stack slot, nil for a promoted one (no slice when all are); immutable after PushFrame
	RetReg   int           // caller register receiving the return value (-1: none)
	shared   bool          // reachable from more than one stack: copy before writing
}

// copyTo makes dst, which brings len(f.Regs) registers, an exclusively
// owned copy of f: the register slice is copied (expressions are
// immutable and shared); the slot objects are identities and the slice
// naming them is shared.
func (f *Frame) copyTo(dst *Frame) *Frame {
	regs := dst.Regs
	copy(regs, f.Regs)
	*dst = *f
	dst.Regs, dst.shared = regs, false
	return dst
}

// Thread is a cooperative thread.
type Thread struct {
	ID        ThreadID
	Proc      ProcessID
	Status    ThreadStatus
	Stack     []*Frame
	WaitList  uint64     // wait queue the thread sleeps on (when sleeping)
	Result    *expr.Expr // value passed to thread exit (joinable)
	Joiners   []ThreadID // threads waiting to join this one
	JoinWlist uint64     // wait queue notified when this thread terminates
}

// stackSpare is the room a cloned stack leaves for calls, so the call a
// fork is usually followed by does not regrow it.
const stackSpare = 4

// clone copies the thread for a fork: the clone gets its own top frame,
// built in one from l's free list when it has one, and the frames below
// it are shared with t and marked so. PopFrame copies a shared frame
// when a return exposes it. The stack slice is a fresh array, so a push
// into its spare room is the clone's alone.
func (t *Thread) clone(l *lineage) *Thread {
	dup := *t
	dup.Stack = append(make([]*Frame, 0, len(t.Stack)+stackSpare), t.Stack...)
	if n := len(t.Stack) - 1; n >= 0 {
		top := t.Stack[n]
		dup.Stack[n] = top.copyTo(l.newFrame(len(top.Regs)))
		// Whatever lies below a shared frame was marked with it.
		for i := n - 1; i >= 0 && !t.Stack[i].shared; i-- {
			t.Stack[i].shared = true
		}
	}
	dup.Joiners = append([]ThreadID(nil), t.Joiners...)
	return &dup
}

// Top returns the active frame.
func (t *Thread) Top() *Frame { return t.Stack[len(t.Stack)-1] }

// Process is an OS-process analog: an address space plus identity.
type Process struct {
	ID         ProcessID
	Parent     ProcessID
	Space      *mem.AddressSpace
	MainThread ThreadID // returning from this thread's entry exits the process
	Exited     bool
	ExitCode   int64
	ExitWlist  uint64     // wait queue notified on exit (for wait())
	Waiters    []ThreadID // threads blocked in wait() for this process
}

// Clone deep-copies process metadata and CoW-clones the address space,
// allocating the process and its space together.
func (p *Process) Clone() *Process {
	both := &struct {
		p  Process
		as mem.AddressSpace
	}{p: *p}
	p.Space.CloneInto(&both.as)
	both.p.Space = &both.as
	both.p.Waiters = append([]ThreadID(nil), p.Waiters...)
	return &both.p
}

// TerminationKind classifies why a state stopped.
type TerminationKind int

// Termination kinds.
const (
	TermNone      TerminationKind = iota
	TermExit                      // program exited normally
	TermError                     // memory error, assert failure, abort
	TermHang                      // deadlock or instruction-limit hang
	TermUnsatPath                 // infeasible (should not normally surface)
)

// S is one symbolic execution state. It is the unit the engine forks,
// schedules and transfers between workers.
type S struct {
	ID   uint64
	Prog *cvm.Program
	// Procs and Threads are indexed by id; slot 0 and the slot of a
	// thread whose creation failed are nil. Look up a guest-supplied id
	// with Proc or Thread. A fork copies both tables.
	Procs   []*Process
	Threads []*Thread
	Shared  *mem.AddressSpace // CoW domain for cloud9_make_shared objects
	Alloc   mem.Allocator     // copied by value on fork
	Globals map[string]uint64 // global name -> address (identical across states)

	Constraints *solver.ConstraintSet
	Cur         ThreadID

	// Path is the branch-choice string from the tree root: the job
	// encoding (§3.2). Persistent list; shared with parents.
	Path *PathNode

	// Deterministic per-state counters (replay-stable).
	NextTID   ThreadID
	NextPID   ProcessID
	NextWlist uint64
	NextSym   uint64

	// WaitLists maps a wait queue to the threads sleeping on it. Read it
	// freely; change it only through NewWaitList, Sleep and Notify: forks
	// share the map until one of them writes (see ownWaitLists).
	WaitLists  map[uint64][]ThreadID
	waitShared bool // WaitLists may be another state's too: copy before writing

	// Output is what the program wrote to stdout along this path.
	Output OutputBuffer

	Steps     uint64 // instructions executed along this path
	Forks     int
	Term      TerminationKind
	TermMsg   string
	MaxSteps  uint64 // hang-detection instruction budget (0 = unlimited)
	MaxHeap   int64  // cloud9_set_max_heap (0 = unlimited)
	HeapUsed  int64
	ForkSched bool // fork the state on every scheduling decision

	// SchedBound caps preemptive context switches along a path when
	// ForkSched is on — the iterative context bounding scheduler of
	// Musuvathi et al. that §5.1 lists (0 = unbounded, i.e. exhaustive).
	SchedBound  int
	CtxSwitches int // preemptive switches taken along this path

	// FaultInj enables error-return fault injection (cloud9_fi_enable).
	FaultInj    bool
	FaultsTaken int // number of injected faults along this path

	// Decision carries a predetermined fork choice into a re-executed
	// builtin call (see interp.Ctx.Decide).
	Decision    int
	HasDecision bool

	// Aux carries model-defined per-state values that must fork with the
	// state but hold no guest memory (e.g. scheduling cursor). Values
	// must be immutable or cloned via AuxCloner. Nil until the first
	// SetAux, so a fork of a state without any allocates no map.
	Aux map[string]interface{}

	// Symbolics records the symbolic input regions created along this
	// path, for test-case rendering.
	Symbolics []SymbolicRegion

	lin *lineage
}

// OutputBuffer is program output, only ever appended to. A fork gets
// the bytes with no spare capacity, so its first append copies them,
// and the parent's appends land past the end of what the fork reads.
type OutputBuffer struct{ Bytes []byte }

// SymbolicRegion names a run of symbolic byte variables created by one
// make_symbolic call.
type SymbolicRegion struct {
	Name  string
	First uint64 // first variable id
	Len   int64
}

// PathNode is one branch decision (persistent list to the root).
type PathNode struct {
	Parent *PathNode
	Choice uint8
	Depth  int
}

// AppendChoice extends the path.
func AppendChoice(p *PathNode, c uint8) *PathNode {
	d := 0
	if p != nil {
		d = p.Depth
	}
	return &PathNode{Parent: p, Choice: c, Depth: d + 1}
}

// PathChoices materializes the root-to-leaf choice string.
func PathChoices(p *PathNode) []uint8 {
	if p == nil {
		return nil
	}
	out := make([]uint8, p.Depth)
	for n := p; n != nil; n = n.Parent {
		out[n.Depth-1] = n.Choice
	}
	return out
}

// New creates the initial state for prog with one process and one thread
// stopped at the entry of function entry.
func New(prog *cvm.Program, entry string) (*S, error) {
	fn := prog.Func(entry)
	if fn == nil {
		return nil, fmt.Errorf("state: no function %q", entry)
	}
	s := &S{
		ID:        1,
		Prog:      prog,
		Procs:     []*Process{nil},
		Threads:   []*Thread{nil},
		Shared:    mem.NewAddressSpace(),
		Alloc:     mem.NewAllocator(0x10000),
		Globals:   map[string]uint64{},
		WaitLists: map[uint64][]ThreadID{},
		NextTID:   1,
		NextPID:   1,
		NextWlist: 1,
		lin:       &lineage{locals: map[*cvm.Func]string{}},
	}
	p := &Process{ID: s.NextPID, Space: mem.NewAddressSpace()}
	s.NextPID++
	p.ExitWlist = s.NewWaitList()
	s.Procs = append(s.Procs, p)

	// Globals are allocated before any fork, so every state sees them at
	// identical addresses.
	for _, g := range prog.Globals {
		os := s.Alloc.AllocateState(g.Size, "global "+g.Name)
		os.InitConcrete(g.Init)
		p.Space.Bind(os)
		s.Globals[g.Name] = os.Obj.Base
	}

	t := &Thread{ID: s.NextTID, Proc: p.ID, Status: ThreadRunnable}
	s.NextTID++
	t.JoinWlist = s.NewWaitList()
	s.Threads = append(s.Threads, t)
	p.MainThread = t.ID
	s.Cur = t.ID
	if _, err := s.PushFrame(t, fn, 0, -1); err != nil {
		return nil, err
	}
	return s, nil
}

// Fork copies the state for a branch, sharing what a branch rarely
// writes: object contents are copy-on-write (mem.AddressSpace.Clone),
// every frame but the top one of each stack is shared until a return
// exposes it (Thread.clone), the wait lists until either side changes
// them (ownWaitLists), and the output, symbolic regions, constraints,
// path and globals are append-only, persistent or immutable: the
// append-only slices are clipped (see OutputBuffer). The caller appends
// the branch constraint and path choice afterwards.
func (s *S) Fork(newID uint64) *S {
	s.waitShared = true
	// The state, its shared domain and (for up to tableInline ids) its
	// tables are one allocation.
	blk := &struct {
		s       S
		shared  mem.AddressSpace
		procs   [tableInline]*Process
		threads [tableInline]*Thread
	}{s: *s}
	dup := &blk.s
	dup.ID = newID
	dup.Term, dup.TermMsg = TermNone, ""
	s.Shared.CloneInto(&blk.shared)
	dup.Shared = &blk.shared
	dup.Procs = append(blk.procs[:0], s.Procs...)
	for id, p := range dup.Procs {
		if p != nil {
			dup.Procs[id] = p.Clone()
		}
	}
	dup.Threads = append(blk.threads[:0], s.Threads...)
	for id, t := range dup.Threads {
		if t != nil {
			dup.Threads[id] = t.clone(s.lin)
		}
	}
	dup.Output.Bytes = slices.Clip(s.Output.Bytes)
	dup.Symbolics = slices.Clip(s.Symbolics)
	dup.Aux = nil
	for k, v := range s.Aux {
		if c, ok := v.(AuxCloner); ok {
			v = c.CloneAux()
		}
		dup.SetAux(k, v)
	}
	return dup
}

// tableInline is how many slots of each id table a fork allocates with
// the state: slot 0 and id 1, what a program with one process and one
// thread has. A larger table is allocated apart.
const tableInline = 2

// AuxCloner lets Aux values define deep-copy behavior on fork.
type AuxCloner interface{ CloneAux() interface{} }

// SetAux sets Aux[key], making the map on first use.
func (s *S) SetAux(key string, v interface{}) {
	if s.Aux == nil {
		s.Aux = make(map[string]interface{}, 1)
	}
	s.Aux[key] = v
}

// Release drops memory references held by the state (call when the state
// becomes dead).
func (s *S) Release() {
	for _, p := range s.Procs {
		if p != nil {
			p.Space.Release()
		}
	}
	s.Shared.Release()
}

// Proc returns process id, or nil when there is none: ids out of
// range, negative ones included, answer nil.
func (s *S) Proc(id ProcessID) *Process {
	if uint(id) < uint(len(s.Procs)) {
		return s.Procs[id]
	}
	return nil
}

// Thread returns thread id, or nil when there is none: ids out of
// range, negative ones included, answer nil.
func (s *S) Thread(id ThreadID) *Thread {
	if uint(id) < uint(len(s.Threads)) {
		return s.Threads[id]
	}
	return nil
}

// CurThread returns the running thread.
func (s *S) CurThread() *Thread { return s.Threads[s.Cur] }

// PushFrame activates fn on thread t and returns the new frame; the
// caller writes the nargs argument values into its first registers.
func (s *S) PushFrame(t *Thread, fn *cvm.Func, nargs, retReg int) (*Frame, error) {
	if nargs != fn.NumParams {
		return nil, fmt.Errorf("state: call %s with %d args, want %d", fn.Name, nargs, fn.NumParams)
	}
	f := s.lin.newFrame(fn.NumRegs)
	f.Fn, f.RetReg = fn, retReg
	var space *mem.AddressSpace
	var name string
	for i, size := range fn.Slots {
		if r := fn.SlotReg(i); r >= 0 {
			// A promoted slot is a register that reads as the zeroed
			// object would, and still takes the object's id and addresses.
			s.Alloc.Skip(size)
			f.Regs[r] = expr.Const(0, expr.Width(8*size))
			continue
		}
		if f.SlotObjs == nil {
			f.SlotObjs = make([]*mem.Object, len(fn.Slots))
			space = s.Procs[t.Proc].Space
			name = s.lin.localName(fn)
		}
		os := s.Alloc.AllocateState(size, name)
		space.Bind(os)
		f.SlotObjs[i] = os.Obj
	}
	t.Stack = append(t.Stack, f)
	return f, nil
}

// PopFrame removes the top frame of a non-empty stack, freeing its stack
// objects, and makes the frame it exposes t's own if forks share it. The
// popped frame goes on the free list, whence that copy usually takes it.
func (s *S) PopFrame(t *Thread) {
	n := len(t.Stack) - 1
	f := t.Stack[n]
	t.Stack = t.Stack[:n]
	space := s.Procs[t.Proc].Space
	for _, obj := range f.SlotObjs {
		if obj == nil {
			continue // promoted: no object was bound
		}
		if os := space.Unbind(obj.Base); os != nil {
			os.Unref()
		}
	}
	if len(s.lin.free) < maxFreeFrames {
		s.lin.free = append(s.lin.free, f)
	}
	if n > 0 && t.Stack[n-1].shared {
		below := t.Stack[n-1]
		t.Stack[n-1] = below.copyTo(s.lin.newFrame(len(below.Regs)))
	}
}

// lineage is the scratch shared by every state forked from one root.
// One worker owns a lineage, so nothing here is locked, and for the same
// reason none of it may live at package level: the workers of a
// cluster.Run are goroutines of one process over one *cvm.Program.
type lineage struct {
	free   []*Frame             // popped frames for newFrame to reuse
	locals map[*cvm.Func]string // "local "+fn.Name, the name of fn's slot objects
}

const maxFreeFrames = 16

// newFrame returns a frame with nregs empty registers and nothing else.
func (l *lineage) newFrame(nregs int) *Frame {
	n := len(l.free) - 1
	if n < 0 {
		return &Frame{Regs: make([]*expr.Expr, nregs)}
	}
	f := l.free[n]
	l.free = l.free[:n]
	regs := f.Regs
	if cap(regs) < nregs {
		regs = make([]*expr.Expr, nregs)
	}
	regs = regs[:nregs]
	clear(regs)
	*f = Frame{Regs: regs}
	return f
}

func (l *lineage) localName(fn *cvm.Func) string {
	name, ok := l.locals[fn]
	if !ok {
		name = "local " + fn.Name
		l.locals[fn] = name
	}
	return name
}

// Resolve finds the object containing addr visible to process pid:
// first the process space, then the shared CoW domain.
func (s *S) Resolve(pid ProcessID, addr uint64) (*mem.AddressSpace, *mem.ObjectState, int64, bool) {
	p := s.Procs[pid]
	if os, off, ok := p.Space.Resolve(addr); ok {
		return p.Space, os, off, true
	}
	if os, off, ok := s.Shared.Resolve(addr); ok {
		return s.Shared, os, off, true
	}
	return nil, nil, 0, false
}

// MakeShared moves the object containing addr from the current process's
// space into the shared CoW domain, making it visible to all processes
// (cloud9_make_shared).
func (s *S) MakeShared(pid ProcessID, addr uint64) bool {
	p := s.Procs[pid]
	os, _, ok := p.Space.Resolve(addr)
	if !ok {
		return false
	}
	p.Space.Unbind(os.Obj.Base)
	os.Obj.Shared = true
	s.Shared.Bind(os)
	return true
}

// NewSymbol returns a fresh symbolic byte variable named name[i].
func (s *S) NewSymbol(name string) *expr.Expr {
	id := s.NextSym
	s.NextSym++
	return expr.Var(id, name)
}

// ownWaitLists makes WaitLists s's alone before a write. Fork marks both
// sides, like Frame.shared: the flag is not a count, so the last holder
// pays one copy it did not need. The queues are clipped to their length,
// so an append to one reallocates it instead of writing into an array
// the other states still read.
func (s *S) ownWaitLists() {
	if !s.waitShared {
		return
	}
	own := make(map[uint64][]ThreadID, len(s.WaitLists)+1)
	for id, q := range s.WaitLists {
		own[id] = slices.Clip(q)
	}
	s.WaitLists, s.waitShared = own, false
}

// NewWaitList allocates a wait queue id (cloud9_get_wlist).
func (s *S) NewWaitList() uint64 {
	s.ownWaitLists()
	id := s.NextWlist
	s.NextWlist++
	s.WaitLists[id] = nil
	return id
}

// Sleep parks thread tid on wait list wl (cloud9_thread_sleep).
func (s *S) Sleep(tid ThreadID, wl uint64) {
	s.ownWaitLists()
	t := s.Threads[tid]
	t.Status = ThreadSleeping
	t.WaitList = wl
	s.WaitLists[wl] = append(s.WaitLists[wl], tid)
}

// Notify wakes one or all threads from wl (cloud9_thread_notify). It
// returns the woken thread ids.
func (s *S) Notify(wl uint64, all bool) []ThreadID {
	q := s.WaitLists[wl]
	if len(q) == 0 {
		return nil
	}
	var woken []ThreadID
	n := 1
	if all {
		n = len(q)
	}
	for i := 0; i < n; i++ {
		tid := q[i]
		t := s.Threads[tid]
		if t != nil && t.Status == ThreadSleeping {
			t.Status = ThreadRunnable
			t.WaitList = 0
			woken = append(woken, tid)
		}
	}
	s.ownWaitLists()
	s.WaitLists[wl] = append([]ThreadID(nil), q[n:]...)
	return woken
}

// Runnable returns the ids of runnable threads in deterministic
// (ascending) order.
func (s *S) Runnable() []ThreadID {
	var out []ThreadID
	for _, t := range s.Threads {
		if t != nil && t.Status == ThreadRunnable {
			out = append(out, t.ID)
		}
	}
	return out
}

// LiveThreads returns the number of non-terminated threads.
func (s *S) LiveThreads() int {
	n := 0
	for _, t := range s.Threads {
		if t != nil && t.Status != ThreadTerminated {
			n++
		}
	}
	return n
}

// CreateThread starts fn as a new thread in process pid
// (cloud9_thread_create).
func (s *S) CreateThread(pid ProcessID, fn *cvm.Func, args []*expr.Expr) (ThreadID, error) {
	t := &Thread{ID: s.NextTID, Proc: pid, Status: ThreadRunnable}
	s.NextTID++
	t.JoinWlist = s.NewWaitList()
	s.Threads = append(s.Threads, t)
	f, err := s.PushFrame(t, fn, len(args), -1)
	if err != nil {
		s.Threads[t.ID] = nil // the id stays taken
		return 0, err
	}
	copy(f.Regs, args)
	return t.ID, nil
}

// TerminateThread marks t terminated, unwinds its stack, and wakes any
// threads sleeping on its join wait list.
func (s *S) TerminateThread(tid ThreadID, result *expr.Expr) {
	t := s.Threads[tid]
	for len(t.Stack) > 0 {
		s.PopFrame(t)
	}
	t.Status = ThreadTerminated
	t.Result = result
	if t.JoinWlist != 0 {
		s.Notify(t.JoinWlist, true)
	}
}

// ForkProcess duplicates the current process (cloud9_process_fork):
// the child gets a CoW clone of the parent's address space and a new
// thread cloned from the calling thread.
func (s *S) ForkProcess(callingThread ThreadID) (ProcessID, ThreadID) {
	parent := s.Threads[callingThread].Proc
	child := &Process{
		ID:     s.NextPID,
		Parent: parent,
		Space:  s.Procs[parent].Space.Clone(),
	}
	s.NextPID++
	child.ExitWlist = s.NewWaitList()
	s.Procs = append(s.Procs, child)

	ct := s.Threads[callingThread].clone(s.lin)
	ct.ID = s.NextTID
	s.NextTID++
	ct.Proc = child.ID
	ct.Joiners = nil
	ct.JoinWlist = s.NewWaitList()
	s.Threads = append(s.Threads, ct)
	child.MainThread = ct.ID
	return child.ID, ct.ID
}

// ExitProcess terminates all threads of pid, records the exit code, and
// wakes threads blocked waiting for the process.
func (s *S) ExitProcess(pid ProcessID, code int64) {
	for _, t := range s.Threads {
		if t != nil && t.Proc == pid && t.Status != ThreadTerminated {
			s.TerminateThread(t.ID, nil)
		}
	}
	p := s.Procs[pid]
	p.Exited = true
	p.ExitCode = code
	if p.ExitWlist != 0 {
		s.Notify(p.ExitWlist, true)
	}
}

// Terminated reports whether the state has stopped.
func (s *S) Terminated() bool { return s.Term != TermNone }

// SetTerminated marks the state stopped.
func (s *S) SetTerminated(kind TerminationKind, msg string) {
	s.Term = kind
	s.TermMsg = msg
}
