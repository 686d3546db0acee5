// Package posix implements Cloud9's symbolic POSIX environment model
// (§4 of the paper): file descriptors, symbolic files (block buffers),
// pipes and TCP/UDP sockets built on stream buffers (Fig. 6), select(),
// the ioctl extensions of Table 3 (SIO_SYMBOLIC, SIO_PKT_FRAGMENT,
// SIO_FAULT_INJ), and fault injection.
//
// Architecture (mirroring Fig. 4): the model splits into
//
//   - non-blocking Go builtins (__px_*) registered with the interpreter —
//     the "modeled components"; and
//   - a guest C prelude (Prelude) compiled with every target — the
//     "symbolic C library": blocking read/write/accept/select loops,
//     pthreads, and the reused string/memory routines.
//
// Blocking is expressed exclusively through the Table 1 symbolic system
// calls (cloud9_thread_sleep / cloud9_thread_notify), exactly as the
// paper's C model does.
//
// Substitution note: the paper keeps model bookkeeping in guest shared
// memory; here it lives in a Go-side structure attached to the execution
// state and deep-copied on fork (state.Aux / AuxCloner). The observable
// semantics are identical because the bookkeeping is never addressable
// from guest code.
package posix

import (
	"cloud9/internal/expr"
	"cloud9/internal/state"
)

// Fd kinds.
type kind int

const (
	kindFile kind = iota
	kindPipe
	kindTCP
	kindUDP
	kindListener
)

// ioctl codes (Table 3).
const (
	SioSymbolic    = 1 // SIO_SYMBOLIC: fd becomes a source of symbolic input
	SioPktFragment = 2 // SIO_PKT_FRAGMENT: explore stream fragmentation
	SioFaultInj    = 3 // SIO_FAULT_INJ: inject failures on this fd
)

// Socket domains/types (exposed to guest code via prelude globals).
const (
	sockStream = 1
	sockDgram  = 2
)

// stream is a half-duplex byte channel with event notification — the
// paper's stream buffer. Reader and writer ends reference it by id.
type stream struct {
	Buf     []*expr.Expr
	Cap     int
	Closed  bool   // no more writers
	RdWlist uint64 // notified when data arrives or the stream closes
	WrWlist uint64 // notified when space frees
}

func (st *stream) clone() *stream {
	dup := *st
	dup.Buf = append([]*expr.Expr(nil), st.Buf...)
	return &dup
}

// datagram is one UDP message.
type datagram struct {
	Data    []*expr.Expr
	SrcPort uint16
}

// symFile is a block buffer backing a file.
type symFile struct {
	Data     []*expr.Expr
	ReadOnly bool // host snapshot files ("external environment")
}

func (f *symFile) clone() *symFile {
	dup := *f
	dup.Data = append([]*expr.Expr(nil), f.Data...)
	return &dup
}

// openFile is an open file description (shared by dup'd/inherited fds).
type openFile struct {
	Kind kind
	Refs int

	// Table 3 per-descriptor behavior toggles.
	Symbolic bool
	Fragment bool
	FaultInj bool

	// kindFile
	Path   string
	Offset int64

	// kindPipe / kindTCP: stream ids (rx: what this end reads).
	RxStream int
	TxStream int

	// kindListener
	Port    uint16
	Backlog []pendingConn
	LsWlist uint64 // notified when a connection arrives

	// kindUDP
	BoundPort uint16
	Dgrams    []datagram
	DgWlist   uint64
}

type pendingConn struct {
	RxStream int // server side rx (client's tx)
	TxStream int
}

func (of *openFile) clone() *openFile {
	dup := *of
	dup.Backlog = append([]pendingConn(nil), of.Backlog...)
	dup.Dgrams = make([]datagram, len(of.Dgrams))
	for i, d := range of.Dgrams {
		dup.Dgrams[i] = datagram{Data: append([]*expr.Expr(nil), d.Data...), SrcPort: d.SrcPort}
	}
	return &dup
}

// fdTable is a per-process descriptor table.
type fdTable struct {
	FDs map[int]int // fd -> ofd id
}

func (ft *fdTable) clone() *fdTable {
	dup := &fdTable{FDs: make(map[int]int, len(ft.FDs))}
	for k, v := range ft.FDs {
		dup.FDs[k] = v
	}
	return dup
}

// px is the model's per-state bookkeeping. It forks with the state.
type px struct {
	OFDs     map[int]*openFile
	NextOFD  int
	Streams  map[int]*stream
	NextStrm int
	Procs    map[state.ProcessID]*fdTable
	Ports    map[uint16]int // TCP port -> listener ofd
	UDPPorts map[uint16]int // UDP port -> socket ofd
	FS       map[string]*symFile
	SelWlist uint64 // global select wait list (event broadcast)

	// DefaultStreamCap bounds socket/pipe buffers.
	DefaultStreamCap int
}

// CloneAux deep-copies the model state on fork (state.AuxCloner).
func (p *px) CloneAux() interface{} {
	dup := &px{
		OFDs:             make(map[int]*openFile, len(p.OFDs)),
		NextOFD:          p.NextOFD,
		Streams:          make(map[int]*stream, len(p.Streams)),
		NextStrm:         p.NextStrm,
		Procs:            make(map[state.ProcessID]*fdTable, len(p.Procs)),
		Ports:            make(map[uint16]int, len(p.Ports)),
		UDPPorts:         make(map[uint16]int, len(p.UDPPorts)),
		FS:               make(map[string]*symFile, len(p.FS)),
		SelWlist:         p.SelWlist,
		DefaultStreamCap: p.DefaultStreamCap,
	}
	for k, v := range p.OFDs {
		dup.OFDs[k] = v.clone()
	}
	for k, v := range p.Streams {
		dup.Streams[k] = v.clone()
	}
	for k, v := range p.Procs {
		dup.Procs[k] = v.clone()
	}
	for k, v := range p.Ports {
		dup.Ports[k] = v
	}
	for k, v := range p.UDPPorts {
		dup.UDPPorts[k] = v
	}
	for k, v := range p.FS {
		dup.FS[k] = v.clone()
	}
	return dup
}

const auxKey = "posix"

// modelOf returns the state's POSIX model data, creating it on demand.
func modelOf(s *state.S) *px {
	if p, ok := s.Aux[auxKey].(*px); ok {
		return p
	}
	p := &px{
		OFDs:             map[int]*openFile{},
		NextOFD:          1,
		Streams:          map[int]*stream{},
		NextStrm:         1,
		Procs:            map[state.ProcessID]*fdTable{},
		Ports:            map[uint16]int{},
		UDPPorts:         map[uint16]int{},
		FS:               map[string]*symFile{},
		SelWlist:         s.NewWaitList(),
		DefaultStreamCap: 4096,
	}
	s.SetAux(auxKey, p)
	return p
}

func (p *px) table(s *state.S, pid state.ProcessID) *fdTable {
	ft, ok := p.Procs[pid]
	if !ok {
		// New process: inherit nothing (init) — fork copies explicitly.
		ft = &fdTable{FDs: map[int]int{}}
		p.Procs[pid] = ft
	}
	return ft
}

func (p *px) newOFD(of *openFile) int {
	id := p.NextOFD
	p.NextOFD++
	of.Refs = 0
	p.OFDs[id] = of
	return id
}

func (p *px) newStream(s *state.S, capacity int) int {
	id := p.NextStrm
	p.NextStrm++
	p.Streams[id] = &stream{
		Cap:     capacity,
		RdWlist: s.NewWaitList(),
		WrWlist: s.NewWaitList(),
	}
	return id
}

// installFD binds a new fd (lowest free, starting at 3) to ofd.
func (p *px) installFD(s *state.S, pid state.ProcessID, ofd int) int {
	ft := p.table(s, pid)
	fd := 3
	for {
		if _, used := ft.FDs[fd]; !used {
			break
		}
		fd++
	}
	ft.FDs[fd] = ofd
	p.OFDs[ofd].Refs++
	return fd
}

func (p *px) lookup(s *state.S, pid state.ProcessID, fd int) (*openFile, int, bool) {
	ft := p.table(s, pid)
	ofd, ok := ft.FDs[fd]
	if !ok {
		return nil, 0, false
	}
	of, ok := p.OFDs[ofd]
	return of, ofd, ok
}

func (p *px) closeFD(s *state.S, pid state.ProcessID, fd int) bool {
	ft := p.table(s, pid)
	ofd, ok := ft.FDs[fd]
	if !ok {
		return false
	}
	delete(ft.FDs, fd)
	of := p.OFDs[ofd]
	of.Refs--
	if of.Refs > 0 {
		return true
	}
	// Last reference: tear down.
	switch of.Kind {
	case kindPipe, kindTCP:
		if st := p.Streams[of.TxStream]; st != nil {
			st.Closed = true
			s.Notify(st.RdWlist, true)
			s.Notify(p.SelWlist, true)
		}
		if st := p.Streams[of.RxStream]; st != nil {
			st.Closed = true
			s.Notify(st.WrWlist, true)
		}
	case kindListener:
		delete(p.Ports, of.Port)
	case kindUDP:
		if of.BoundPort != 0 {
			delete(p.UDPPorts, of.BoundPort)
		}
	}
	delete(p.OFDs, ofd)
	return true
}

// forkInheritFDs duplicates the parent's fd table into the child
// (called by the fork() wrapper's builtin hook).
func (p *px) forkInheritFDs(parent, child state.ProcessID) {
	pt, ok := p.Procs[parent]
	if !ok {
		return
	}
	ct := &fdTable{FDs: make(map[int]int, len(pt.FDs))}
	for fd, ofd := range pt.FDs {
		ct.FDs[fd] = ofd
		p.OFDs[ofd].Refs++
	}
	p.Procs[child] = ct
}
