package sweep

import (
	"fmt"

	"psd/internal/core"
	"psd/internal/sched"
)

// disciplineFor maps a size-aware policy to its packetized scheduling
// discipline. The allocator half of such a policy comes from the core
// registry; the discipline half lives here because the sweep engine owns
// the packetized model wiring (core cannot import sched).
func disciplineFor(name string) func(classes int) sched.Scheduler {
	switch name {
	case "hesrpt":
		return func(classes int) sched.Scheduler { return sched.NewHeSRPT(classes) }
	}
	return nil
}

// resolvePolicy materializes a Point's Policy name through w's policy
// cache: a fresh allocator from the registered policy replaces
// Cfg.Allocator (instances are never shared between points — a policy may
// be stateful), and a size-aware policy switches the point to the
// packetized model with its discipline (unless the caller already pinned
// a NewScheduler). The policy is returned so the router reads its
// capabilities without looking the allocator's name up again. No-op (and
// a nil Policy) when Policy is empty, so every pre-policy-axis grid is
// untouched.
func (p *Point) resolvePolicy(w *pointWorker) (*core.Policy, error) {
	if p.Policy == "" {
		return nil, nil
	}
	pol := w.policy(p.Policy)
	if pol == nil {
		_, err := core.Parse(p.Policy) // the registry's own "unknown policy" error
		return nil, err
	}
	p.Cfg.Allocator = pol.New()
	if pol.Caps.NeedsSizeInfo {
		if p.Trace != nil {
			return pol, fmt.Errorf("sweep: size-aware policy %q cannot drive trace replay", p.Policy)
		}
		p.Packetized = true
		if p.NewScheduler == nil {
			p.NewScheduler = disciplineFor(p.Policy)
			if p.NewScheduler == nil {
				return pol, fmt.Errorf("sweep: size-aware policy %q has no registered discipline", p.Policy)
			}
		}
	}
	return pol, nil
}

// Tournament crosses a base scenario grid with a list of registered
// policy names: the result is policy-major (all base points under
// policies[0] first), so one Engine.Run invocation sweeps the whole
// policy tournament and the caller slices the aggregates back per policy
// as out[p*len(base) : (p+1)*len(base)]. Base points must not already
// carry a Policy; their Cfg, schedules and service laws are copied
// as-is, which is exactly what makes the comparison fair.
func Tournament(base []Point, policies []string) ([]Point, error) {
	if len(base) == 0 {
		return nil, fmt.Errorf("sweep: tournament needs at least one base point")
	}
	if len(policies) == 0 {
		return nil, fmt.Errorf("sweep: tournament needs at least one policy")
	}
	out := make([]Point, 0, len(base)*len(policies))
	for _, name := range policies {
		if _, ok := core.Lookup(name); !ok {
			return nil, fmt.Errorf("sweep: tournament policy %q is not registered", name)
		}
		for i := range base {
			if base[i].Policy != "" {
				return nil, fmt.Errorf("sweep: tournament base point %d already names policy %q", i, base[i].Policy)
			}
			p := base[i]
			p.Policy = name
			out = append(out, p)
		}
	}
	return out, nil
}
