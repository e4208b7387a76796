package core

import (
	"fmt"
	"sort"
)

// Capabilities are the per-policy flags the rest of the stack keys its
// routing decisions off: the analytic evaluator, the sweep engine's
// policy axis and the CLIs all consult them instead of hard-coding
// allocator type lists.
type Capabilities struct {
	// AnalyticEligible marks policies whose stationary allocation at the
	// true arrival rates is a closed form internal/analytic can evaluate
	// (Theorem 1 at deterministic fixed rates). PDD's share solve targets
	// delays and the packetized correction assumes a different service
	// model, so they simulate.
	AnalyticEligible bool
	// NeedsSizeInfo marks size-aware policies: their scheduling decision
	// reads each job's size, so they only exist on the packetized server
	// model with a size-aware discipline (internal/sched), never on the
	// paper's partitioned fluid model or the live byte-stream server.
	NeedsSizeInfo bool
}

// Policy is one registered allocation policy: a parse name, the flags
// above, and a factory for a ready-to-use allocator.
type Policy struct {
	// Name is the unique registry key (the CLI -allocator spelling).
	Name string
	// Summary is a one-line description for help text and docs.
	Summary string
	// Caps are the policy's routing capabilities.
	Caps Capabilities
	// New returns a fresh allocator. Every registered policy returns an
	// InPlaceAllocator (enforced by Register) so the zero-allocation
	// control paths hold for the whole zoo.
	New func() Allocator
}

// registry holds the policies in registration order; Names/Policies are
// deterministic so CLI help, tests and the bench tournament enumerate
// the zoo identically everywhere. Registration happens at package init
// (and, for external policies, before any concurrent use) — the map is
// read-only afterwards, so no locking.
var (
	registryOrder []string
	registry      = map[string]Policy{}
)

// Register adds a policy to the zoo. It panics on a nil factory,
// duplicate or empty name, a factory whose allocator reports a different
// Name, or an allocator without an in-place path — all programmer errors
// at init time, not runtime conditions.
func Register(p Policy) {
	if p.Name == "" {
		panic("core: Register with empty policy name")
	}
	if p.New == nil {
		panic(fmt.Sprintf("core: Register(%q) with nil factory", p.Name))
	}
	if _, dup := registry[p.Name]; dup {
		panic(fmt.Sprintf("core: Register(%q) duplicates an existing policy", p.Name))
	}
	a := p.New()
	if a == nil {
		panic(fmt.Sprintf("core: Register(%q) factory returned nil", p.Name))
	}
	if a.Name() != p.Name {
		panic(fmt.Sprintf("core: Register(%q) factory allocator names itself %q", p.Name, a.Name()))
	}
	if _, ok := a.(InPlaceAllocator); !ok {
		panic(fmt.Sprintf("core: Register(%q) allocator lacks an AllocateInto path", p.Name))
	}
	registry[p.Name] = p
	registryOrder = append(registryOrder, p.Name)
}

// Parse resolves a policy name to a fresh allocator — the single entry
// point behind every CLI -allocator flag (the per-command string
// switches it replaced could silently drift apart).
func Parse(name string) (Allocator, error) {
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown policy %q (registered: %s)", name, namesHelp())
	}
	return p.New(), nil
}

// Lookup returns the registered policy for a name. Capability routing
// (internal/analytic, internal/sweep) keys off the allocator's Name():
// a custom allocator that is not registered simply has no capabilities,
// so it simulates and never takes a closed-form shortcut.
func Lookup(name string) (Policy, bool) {
	p, ok := registry[name]
	return p, ok
}

// Names lists the registered policy names in sorted order.
func Names() []string {
	out := make([]string, len(registryOrder))
	copy(out, registryOrder)
	sort.Strings(out)
	return out
}

// Policies lists the registered policies in registration order (the
// curated order: the paper's strategy first, then baselines, then the
// related-work rivals).
func Policies() []Policy {
	out := make([]Policy, 0, len(registryOrder))
	for _, n := range registryOrder {
		out = append(out, registry[n])
	}
	return out
}

func namesHelp() string {
	s := ""
	for i, n := range Names() {
		if i > 0 {
			s += " | "
		}
		s += n
	}
	return s
}

// The built-in zoo.
func init() {
	Register(Policy{
		Name:    "psd",
		Summary: "the paper's Eq. 17 proportional-slowdown allocation",
		Caps:    Capabilities{AnalyticEligible: true},
		New:     func() Allocator { return PSD{} },
	})
	Register(Policy{
		Name:    "pdd",
		Summary: "proportional *delay* differentiation (exact share solve), the closest prior-art target",
		New:     func() Allocator { return PDD{} },
	})
	Register(Policy{
		Name:    "equal",
		Summary: "equal share baseline (no differentiation)",
		Caps:    Capabilities{AnalyticEligible: true},
		New:     func() Allocator { return EqualShare{} },
	})
	Register(Policy{
		Name:    "demand",
		Summary: "demand-proportional baseline (shares track load, not δ)",
		Caps:    Capabilities{AnalyticEligible: true},
		New:     func() Allocator { return DemandProportional{} },
	})
	Register(Policy{
		Name:    "ppsd",
		Summary: "PSD corrected for the packetized run-to-completion server model",
		New:     func() Allocator { return PacketizedPSD{} },
	})
	Register(Policy{
		Name:    "log",
		Summary: "logarithmic-weight surplus split (Robert & Véber style compressed differentiation)",
		Caps:    Capabilities{AnalyticEligible: true},
		New:     func() Allocator { return LogWeight{} },
	})
	Register(Policy{
		Name:    "downgrade",
		Summary: "PSD with Fricker-style downgrading: degrade effective δ under saturation before shedding",
		New:     func() Allocator { return Downgrading{} },
	})
	Register(Policy{
		Name:    "hesrpt",
		Summary: "heSRPT-style size-aware scheduling (packetized model, weighted shortest-job-first)",
		Caps:    Capabilities{NeedsSizeInfo: true},
		New:     func() Allocator { return HeSRPTWeights{} },
	})
}
