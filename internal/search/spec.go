package search

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cloud9/internal/cfg"
	"cloud9/internal/engine"
	"cloud9/internal/tree"
)

// Spec is a parsed strategy (or classifier) term: a name, an optional
// ":N" integer parameter, parenthesized arguments, and key=value
// arguments (the parameterized-strategy hook, e.g. the weight vector
// in "dist-opt(w=1:0:0:0.5)"). Specs serialize back to strings with
// String, so a strategy assignment is plain data the cluster can put
// on the wire.
type Spec struct {
	Name     string
	Param    int
	HasParam bool
	Args     []*Spec
	KVs      []SpecKV
}

// SpecKV is one key=value argument. Values are opaque at the grammar
// level (numeric lists use ':' separators, e.g. "1:0.5:0:0"); the
// strategy constructor that accepts the key interprets them.
type SpecKV struct {
	Key, Val string
}

// KV returns the value of a key=value argument and whether it was
// present.
func (s *Spec) KV(key string) (string, bool) {
	for _, kv := range s.KVs {
		if kv.Key == key {
			return kv.Val, true
		}
	}
	return "", false
}

// String renders the spec in its canonical parseable form (positional
// arguments first, then key=value arguments, both in parse order).
func (s *Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	if s.HasParam {
		fmt.Fprintf(&b, ":%d", s.Param)
	}
	if len(s.Args) > 0 || len(s.KVs) > 0 {
		b.WriteByte('(')
		for i, a := range s.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(a.String())
		}
		for i, kv := range s.KVs {
			if len(s.Args) > 0 || i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(kv.Key)
			b.WriteByte('=')
			b.WriteString(kv.Val)
		}
		b.WriteByte(')')
	}
	return b.String()
}

// containsRandomPath reports whether building the spec tree would
// instantiate a RandomPath — including through interleave's *default*
// arguments (bare "interleave"/"interleaved" builds random-path ⊕
// cov-opt), which a plain name search would miss.
func (s *Spec) containsRandomPath() bool {
	if s.Name == "random-path" {
		return true
	}
	if (s.Name == "interleave" || s.Name == "interleaved") && len(s.Args) == 0 {
		return true
	}
	for _, a := range s.Args {
		if a.containsRandomPath() {
			return true
		}
	}
	return false
}

// Parse parses a spec string. Grammar:
//
//	SPEC  := NAME [":" INT] ["(" ARG {"," ARG} ")"]
//	ARG   := SPEC | NAME "=" VALUE
//	NAME  := [a-zA-Z0-9_-]+
//	VALUE := [a-zA-Z0-9_.:+-]+
//
// A VALUE is opaque to the grammar; the accepting strategy interprets
// it (dist-opt reads "w" as a ':'-separated float vector).
func Parse(spec string) (*Spec, error) {
	p := &parser{src: spec}
	s, err := p.parseSpec()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("search: trailing input at %d in %q", p.pos, spec)
	}
	return s, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func nameChar(c byte) bool {
	return c == '-' || c == '_' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func valueChar(c byte) bool {
	return nameChar(c) || c == '.' || c == ':' || c == '+'
}

// tryParseKV attempts to parse a NAME "=" VALUE argument at the current
// position; on a non-match (no '=' after the name) the position is
// restored and the caller falls back to parseSpec.
func (p *parser) tryParseKV() (SpecKV, bool, error) {
	save := p.pos
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && nameChar(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start || p.pos >= len(p.src) || p.src[p.pos] != '=' {
		p.pos = save
		return SpecKV{}, false, nil
	}
	key := p.src[start:p.pos]
	p.pos++ // '='
	vStart := p.pos
	for p.pos < len(p.src) && valueChar(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == vStart {
		return SpecKV{}, false, fmt.Errorf("search: empty value for %q at %d in %q", key, p.pos, p.src)
	}
	return SpecKV{Key: key, Val: p.src[vStart:p.pos]}, true, nil
}

func (p *parser) parseSpec() (*Spec, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && nameChar(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("search: expected a name at %d in %q", p.pos, p.src)
	}
	s := &Spec{Name: p.src[start:p.pos]}
	if p.pos < len(p.src) && p.src[p.pos] == ':' {
		p.pos++
		numStart := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		v, err := strconv.Atoi(p.src[numStart:p.pos])
		if err != nil {
			return nil, fmt.Errorf("search: bad parameter after %q in %q", s.Name, p.src)
		}
		s.Param, s.HasParam = v, true
	}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		p.pos++
		for {
			if kv, ok, err := p.tryParseKV(); err != nil {
				return nil, err
			} else if ok {
				s.KVs = append(s.KVs, kv)
			} else {
				arg, err := p.parseSpec()
				if err != nil {
					return nil, err
				}
				s.Args = append(s.Args, arg)
			}
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("search: unclosed '(' in %q", p.src)
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			return nil, fmt.Errorf("search: expected ',' or ')' at %d in %q", p.pos, p.src)
		}
	}
	return s, nil
}

// ---- Strategy registry ----

// StrategyCtor builds a strategy for a registered name. s is the full
// parsed spec (positional arguments in s.Args, key=value arguments via
// s.KV); build nested strategies with b.Build(arg) and fresh
// deterministic seeds with b.DeriveSeed(). Constructors must reject
// arguments they do not understand — a silently ignored parameter
// would make two visibly different specs behave identically.
type StrategyCtor func(b *Builder, s *Spec) (engine.Strategy, error)

var (
	strategyMu  sync.RWMutex
	strategyReg = map[string]StrategyCtor{}
)

// RegisterStrategy adds a strategy constructor under a spec name.
// Registering an existing name replaces it.
func RegisterStrategy(name string, ctor StrategyCtor) {
	strategyMu.Lock()
	defer strategyMu.Unlock()
	strategyReg[name] = ctor
}

// StrategyNames lists the registered strategy names, sorted.
func StrategyNames() []string {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	names := make([]string, 0, len(strategyReg))
	for n := range strategyReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Builder carries the context a strategy constructor needs: the worker's
// execution tree, its distance-to-uncovered oracle (nil when the build
// has no program attached — e.g. Validate — in which case distance
// strategies degrade gracefully rather than fail), and a deterministic
// seed stream (every randomized sub-strategy pulls a distinct,
// reproducible seed — the lock-step sim depends on it).
type Builder struct {
	Tree *tree.Tree
	Dist *cfg.Distance
	seed int64
}

// DeriveSeed returns the next seed in the builder's deterministic
// stream (splitmix64 step, never zero).
func (b *Builder) DeriveSeed() int64 {
	b.seed += -7046029254386353131 // splitmix64 golden-gamma increment
	z := uint64(b.seed)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return int64(z &^ (1 << 63))
}

// Build constructs the strategy a parsed spec describes.
func (b *Builder) Build(s *Spec) (engine.Strategy, error) {
	strategyMu.RLock()
	ctor := strategyReg[s.Name]
	strategyMu.RUnlock()
	if ctor == nil {
		return nil, fmt.Errorf("search: unknown strategy %q (have %v)", s.Name, StrategyNames())
	}
	return ctor(b, s)
}

// Build parses spec and constructs the strategy over t. d is the
// worker's distance oracle (nil allowed: distance strategies fall back
// to neutral ranking). seed drives every randomized component
// deterministically: the same (spec, seed) always yields the same
// selection sequence.
func Build(spec string, t *tree.Tree, d *cfg.Distance, seed int64) (engine.Strategy, error) {
	ast, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	return (&Builder{Tree: t, Dist: d, seed: seed}).Build(ast)
}

// Factory parses spec once and returns the constructor
// engine.Config.Strategy wants: each call builds a fresh strategy from
// the same (spec, seed). The empty spec returns nil, the engine's own
// default; a spec that does not parse or build (against a throwaway
// tree, as in Validate) is an error.
func Factory(spec string, seed int64) (func(*tree.Tree, *cfg.Distance) engine.Strategy, error) {
	if spec == "" {
		return nil, nil
	}
	ast, err := Parse(spec)
	if err == nil {
		_, err = (&Builder{Tree: tree.New(nil, nil), seed: seed}).Build(ast)
	}
	if err != nil {
		return nil, err
	}
	return func(t *tree.Tree, d *cfg.Distance) engine.Strategy {
		s, err := (&Builder{Tree: t, Dist: d, seed: seed}).Build(ast)
		if err != nil {
			panic(err) // the same spec built just above
		}
		return s
	}, nil
}

// Validate checks that spec parses and builds (against a throwaway
// tree, with no distance oracle). Use it to reject bad portfolio
// entries at configuration time, before a worker ever joins — notably
// the load balancer validates portfolios without loading any program,
// which is why distance strategies must build with a nil oracle.
func Validate(spec string) error {
	_, err := Build(spec, tree.New(nil, nil), nil, 1)
	return err
}

// ParsePortfolio splits a comma-separated portfolio flag into specs,
// respecting parentheses: "dfs,cupa(site,dfs),random" has three
// entries. Each entry is validated.
func ParsePortfolio(flag string) ([]string, error) {
	var specs []string
	depth, start := 0, 0
	flush := func(end int) {
		if s := strings.TrimSpace(flag[start:end]); s != "" {
			specs = append(specs, s)
		}
		start = end + 1
	}
	for i := 0; i < len(flag); i++ {
		switch flag[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				flush(i)
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("search: unbalanced parentheses in portfolio %q", flag)
	}
	flush(len(flag))
	for _, s := range specs {
		if err := Validate(s); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// ---- Built-in strategies ----

func noArgs(name string, s *Spec) error {
	if len(s.Args) != 0 {
		return fmt.Errorf("search: %s takes no arguments", name)
	}
	return noKVs(name, s)
}

// noKVs rejects every key=value argument the strategy did not consume.
func noKVs(name string, s *Spec, allowed ...string) error {
	for _, kv := range s.KVs {
		ok := false
		for _, a := range allowed {
			if kv.Key == a {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("search: %s does not accept %s=", name, kv.Key)
		}
	}
	return nil
}

func init() {
	RegisterStrategy("dfs", func(b *Builder, s *Spec) (engine.Strategy, error) {
		return engine.NewDFS(), noArgs("dfs", s)
	})
	RegisterStrategy("bfs", func(b *Builder, s *Spec) (engine.Strategy, error) {
		return engine.NewBFS(), noArgs("bfs", s)
	})
	RegisterStrategy("random", func(b *Builder, s *Spec) (engine.Strategy, error) {
		return engine.NewRandom(b.DeriveSeed()), noArgs("random", s)
	})
	RegisterStrategy("random-path", func(b *Builder, s *Spec) (engine.Strategy, error) {
		return engine.NewRandomPath(b.Tree, b.DeriveSeed()), noArgs("random-path", s)
	})
	RegisterStrategy("cov-opt", func(b *Builder, s *Spec) (engine.Strategy, error) {
		return engine.NewCoverageOptimized(b.DeriveSeed()), noArgs("cov-opt", s)
	})
	// dist-opt ranks by static distance to uncovered code; the optional
	// weight vector (w=md2u:depth:faults:yield) generalizes the fixed
	// 1/(1+md2u)² ranking into a parameterized family. Bare dist-opt is
	// w=1:0:0:0.
	RegisterStrategy("dist-opt", func(b *Builder, s *Spec) (engine.Strategy, error) {
		if len(s.Args) != 0 {
			return nil, fmt.Errorf("search: dist-opt takes no positional arguments")
		}
		if err := noKVs("dist-opt", s, "w"); err != nil {
			return nil, err
		}
		w := engine.DefaultDistWeights()
		if v, ok := s.KV("w"); ok {
			var err error
			if w, err = engine.ParseDistWeights(v); err != nil {
				return nil, fmt.Errorf("search: dist-opt: %w", err)
			}
		}
		return engine.NewDistanceOptimized(b.Dist, b.DeriveSeed(), w), nil
	})
	RegisterStrategy("fewest-faults", func(b *Builder, s *Spec) (engine.Strategy, error) {
		return engine.NewFewestFaults(), noArgs("fewest-faults", s)
	})
	// interleave(a,b,...) round-robins sub-strategies; bare "interleaved"
	// is the paper's evaluation default (random-path ⊕ cov-opt, §7).
	interleave := func(b *Builder, s *Spec) (engine.Strategy, error) {
		if err := noKVs(s.Name, s); err != nil {
			return nil, err
		}
		args := s.Args
		if len(args) == 0 {
			args = []*Spec{{Name: "random-path"}, {Name: "cov-opt"}}
		}
		subs := make([]engine.Strategy, len(args))
		for i, a := range args {
			s, err := b.Build(a)
			if err != nil {
				return nil, err
			}
			subs[i] = s
		}
		return engine.NewInterleaved(subs...), nil
	}
	RegisterStrategy("interleave", interleave)
	RegisterStrategy("interleaved", interleave)
	// cupa(class[,class...],inner): one CUPA level per classifier,
	// innermost delegating to the final strategy spec.
	RegisterStrategy("cupa", func(b *Builder, s *Spec) (engine.Strategy, error) {
		if err := noKVs("cupa", s); err != nil {
			return nil, err
		}
		args := s.Args
		if len(args) < 2 {
			return nil, fmt.Errorf("search: cupa needs at least (classifier, inner-strategy)")
		}
		inner := args[len(args)-1]
		if inner.containsRandomPath() {
			// RandomPath ignores Add/Remove and walks the whole tree, so as
			// a per-class policy it would select outside its class and break
			// CUPA's bookkeeping.
			return nil, fmt.Errorf("search: random-path cannot be a cupa inner strategy (it ignores the per-class candidate set)")
		}
		classifiers := make([]Classifier, len(args)-1)
		for i, a := range args[:len(args)-1] {
			if len(a.Args) > 0 || len(a.KVs) > 0 {
				return nil, fmt.Errorf("search: classifier %q cannot take spec arguments", a.Name)
			}
			cls, err := classifierByName(b, a.Name, a.Param, a.HasParam)
			if err != nil {
				return nil, err
			}
			classifiers[i] = cls
		}
		// Surface inner-spec construction errors once, up front; after
		// this the spec can only fail to build if the registry is
		// mutated mid-run, so the lazy per-class builds may panic.
		if _, err := b.Build(inner); err != nil {
			return nil, err
		}
		// Nest from the innermost classifier outward: each level's class
		// strategy is a fresh instance of the level below, each pulling
		// its own seed from the builder's deterministic stream.
		build := func() engine.Strategy {
			s, err := b.Build(inner)
			if err != nil {
				panic(err) // validated above
			}
			return s
		}
		for level := len(classifiers) - 1; level >= 0; level-- {
			cls, below := classifiers[level], build
			build = func() engine.Strategy {
				return NewCUPA(cls, below, b.DeriveSeed())
			}
		}
		return build(), nil
	})
}
