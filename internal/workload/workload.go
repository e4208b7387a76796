// Package workload describes the requests a PSD server is offered.
//
// Its arrival script is the paper's model: each class an independent
// Poisson Stream with its own size law, its rate scaled over time by a
// Phase schedule. The simulator (internal/simsrv) and the HTTP load
// generator (internal/loadgen) both walk it, so one seed names the same
// requests in both.
//
// Its sessions are the e-commerce traffic of §2.2, which motivates the
// M/D/1 case (Eq. 15): "a session is a sequence of requests of different
// types made by a single customer during a single visit to a site." A
// customer behavior model graph (CBMG) walks each session through site
// states, each issuing one request sized by a per-state law
// (Deterministic for home/register, heavy-tailed for browse/search) in
// the session's class. The simulator replays them as a trace, which
// round-trips through CSV.
package workload

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"psd/internal/dist"
	"psd/internal/rng"
)

// State identifies a CBMG node.
type State int

// The canonical e-commerce states.
const (
	Home State = iota
	Browse
	Search
	Details
	Register
	Pay
	Exit // absorbing
	numStates
)

var stateNames = [...]string{"home", "browse", "search", "details", "register", "pay", "exit"}

// String returns the state's lowercase name.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// Model is a customer behavior model graph: transition probabilities
// between states plus per-state service-size distributions and per-state
// think-time means.
type Model struct {
	// Transitions[s] lists the outgoing probabilities from state s; rows
	// must sum to 1 and Exit must be absorbing.
	Transitions [numStates][numStates]float64
	// Service[s] is the request-size law for state s (nil for Exit).
	Service [numStates]dist.Distribution
	// ThinkMean is the exponential mean think time between a session's
	// consecutive requests, in simulation time units.
	ThinkMean float64
	// Entry is the first state of every session.
	Entry State
}

// DefaultModel returns a CBMG calibrated to the paper's setting: home and
// register are near-constant (Deterministic — the M/D/1 states), browse/
// search/details heavy-tailed Bounded Pareto, a shopper mix that mostly
// browses, and mean think time of 5 time units.
func DefaultModel() *Model {
	m := &Model{ThinkMean: 5, Entry: Home}
	set := func(from State, pairs ...any) {
		for i := 0; i < len(pairs); i += 2 {
			m.Transitions[from][pairs[i].(State)] = pairs[i+1].(float64)
		}
	}
	set(Home, Browse, 0.5, Search, 0.3, Register, 0.1, Exit, 0.1)
	set(Browse, Browse, 0.3, Details, 0.4, Search, 0.1, Exit, 0.2)
	set(Search, Details, 0.5, Search, 0.2, Browse, 0.1, Exit, 0.2)
	set(Details, Browse, 0.3, Pay, 0.2, Search, 0.2, Exit, 0.3)
	set(Register, Browse, 0.5, Search, 0.3, Exit, 0.2)
	set(Pay, Exit, 1.0)
	set(Exit, Exit, 1.0)

	m.Service[Home] = mustDet(0.15)
	m.Service[Register] = mustDet(0.25)
	m.Service[Pay] = mustDet(0.4)
	m.Service[Browse] = dist.MustBoundedPareto(0.1, 50, 1.5)
	m.Service[Search] = dist.MustBoundedPareto(0.1, 80, 1.4)
	m.Service[Details] = dist.MustBoundedPareto(0.1, 30, 1.6)
	return m
}

func mustDet(v float64) dist.Distribution {
	d, err := dist.NewDeterministic(v)
	if err != nil {
		panic(err)
	}
	return d
}

// Validate checks row sums and absorbing Exit.
func (m *Model) Validate() error {
	for s := State(0); s < numStates; s++ {
		sum := 0.0
		for to := State(0); to < numStates; to++ {
			p := m.Transitions[s][to]
			if p < 0 || p > 1 {
				return fmt.Errorf("workload: P(%v→%v)=%v out of [0,1]", s, to, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("workload: row %v sums to %v", s, sum)
		}
		if s != Exit && m.Service[s] == nil {
			return fmt.Errorf("workload: state %v lacks a service distribution", s)
		}
	}
	if m.Transitions[Exit][Exit] != 1 {
		return errors.New("workload: Exit must be absorbing")
	}
	if !(m.ThinkMean > 0) {
		return fmt.Errorf("workload: think mean %v must be positive", m.ThinkMean)
	}
	return nil
}

// Request is one generated request.
type Request struct {
	// Time is the arrival time in simulation time units.
	Time float64
	// Class is the session's service tier (index into the PSD classes).
	Class int
	// State is the CBMG state that issued the request.
	State State
	// Size is the service demand in work units.
	Size float64
	// Session identifies the generating session.
	Session int
}

// Generator produces session-based request streams.
type Generator struct {
	model *Model
	// SessionRate is the Poisson rate of session starts per time unit.
	sessionRate float64
	// classProbs[i] is the probability a session belongs to class i.
	classProbs []float64
	src        *rng.Source
}

// NewGenerator builds a generator: sessions start Poisson(sessionRate),
// each assigned class i with probability classProbs[i].
func NewGenerator(m *Model, sessionRate float64, classProbs []float64, src *rng.Source) (*Generator, error) {
	if m == nil {
		return nil, errors.New("workload: nil model")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if !(sessionRate > 0) {
		return nil, fmt.Errorf("workload: session rate %v must be positive", sessionRate)
	}
	if len(classProbs) == 0 {
		return nil, errors.New("workload: no class probabilities")
	}
	sum := 0.0
	for i, p := range classProbs {
		if p < 0 {
			return nil, fmt.Errorf("workload: class prob[%d]=%v negative", i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("workload: class probs sum to %v", sum)
	}
	if src == nil {
		src = rng.New(0)
	}
	return &Generator{model: m, sessionRate: sessionRate, classProbs: append([]float64(nil), classProbs...), src: src}, nil
}

// Generate produces all requests with arrival time < horizon, sorted by
// arrival time. Sessions started before the horizon run to completion
// (their later requests may exceed the horizon and are trimmed).
func (g *Generator) Generate(horizon float64) ([]Request, error) {
	if !(horizon > 0) {
		return nil, fmt.Errorf("workload: horizon %v must be positive", horizon)
	}
	var out []Request
	session := 0
	for t := g.src.ExpFloat64(g.sessionRate); t < horizon; t += g.src.ExpFloat64(g.sessionRate) {
		class := g.pickClass()
		out = append(out, g.walkSession(t, class, session, horizon)...)
		session++
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, nil
}

func (g *Generator) pickClass() int {
	u := g.src.Float64()
	acc := 0.0
	for i, p := range g.classProbs {
		acc += p
		if u <= acc {
			return i
		}
	}
	return len(g.classProbs) - 1
}

// walkSession walks the CBMG from Entry until Exit (or a safety cap).
func (g *Generator) walkSession(start float64, class, session int, horizon float64) []Request {
	var reqs []Request
	state := g.model.Entry
	t := start
	// Cap pathological walks; the default model's expected length is ~5.
	for steps := 0; steps < 1000 && state != Exit; steps++ {
		if t >= horizon {
			break
		}
		size := g.model.Service[state].Sample(g.src)
		reqs = append(reqs, Request{Time: t, Class: class, State: state, Size: size, Session: session})
		state = g.nextState(state)
		t += g.src.ExpFloat64(1 / g.model.ThinkMean)
	}
	return reqs
}

func (g *Generator) nextState(s State) State {
	u := g.src.Float64()
	acc := 0.0
	for to := State(0); to < numStates; to++ {
		acc += g.model.Transitions[s][to]
		if u <= acc {
			return to
		}
	}
	return Exit
}

// MeanRequestsPerSession returns the expected session length (number of
// requests) of the model, computed from the fundamental matrix via simple
// absorption iteration.
func (m *Model) MeanRequestsPerSession() float64 {
	// visits[s] = expected visits to s starting from Entry before
	// absorption; solved by value iteration (the chain is absorbing, so
	// iteration converges geometrically).
	const iters = 10000
	visits := make([]float64, numStates)
	cur := make([]float64, numStates)
	cur[m.Entry] = 1
	for i := 0; i < iters; i++ {
		next := make([]float64, numStates)
		moved := 0.0
		for s := State(0); s < numStates; s++ {
			if cur[s] == 0 {
				continue
			}
			if s == Exit {
				continue
			}
			visits[s] += cur[s]
			for to := State(0); to < numStates; to++ {
				if p := m.Transitions[s][to]; p > 0 {
					next[to] += float64(cur[s] * p)
					moved += float64(cur[s] * p)
				}
			}
		}
		cur = next
		if moved < 1e-12 {
			break
		}
	}
	total := 0.0
	for s := State(0); s < numStates; s++ {
		if s != Exit {
			total += visits[s]
		}
	}
	return total
}

// WriteTrace serializes requests as CSV (time,class,state,size,session).
func WriteTrace(w io.Writer, reqs []Request) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", "class", "state", "size", "session"}); err != nil {
		return err
	}
	for _, r := range reqs {
		rec := []string{
			strconv.FormatFloat(r.Time, 'g', -1, 64),
			strconv.Itoa(r.Class),
			r.State.String(),
			strconv.FormatFloat(r.Size, 'g', -1, 64),
			strconv.Itoa(r.Session),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTrace parses a CSV trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]Request, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace header: %w", err)
	}
	if len(header) != 5 || header[0] != "time" {
		return nil, fmt.Errorf("workload: unexpected trace header %v", header)
	}
	nameToState := map[string]State{}
	for s := State(0); s < numStates; s++ {
		nameToState[s.String()] = s
	}
	var out []Request
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		t, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d time: %w", line, err)
		}
		class, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d class: %w", line, err)
		}
		state, ok := nameToState[rec[2]]
		if !ok {
			return nil, fmt.Errorf("workload: trace line %d unknown state %q", line, rec[2])
		}
		size, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d size: %w", line, err)
		}
		session, err := strconv.Atoi(rec[4])
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d session: %w", line, err)
		}
		out = append(out, Request{Time: t, Class: class, State: state, Size: size, Session: session})
	}
	return out, nil
}

// ClassRates estimates per-class arrival rates (requests per time unit)
// from a trace over the given horizon, for feeding the PSD allocator.
func ClassRates(reqs []Request, classes int, horizon float64) ([]float64, error) {
	if !(horizon > 0) {
		return nil, fmt.Errorf("workload: horizon %v must be positive", horizon)
	}
	out := make([]float64, classes)
	for _, r := range reqs {
		if r.Class < 0 || r.Class >= classes {
			return nil, fmt.Errorf("workload: request class %d out of range [0,%d)", r.Class, classes)
		}
		out[r.Class]++
	}
	for i := range out {
		out[i] /= horizon
	}
	return out, nil
}

// SizeMoments computes the empirical Workload-style moments of a trace's
// sizes: E[X], E[X²], E[1/X].
func SizeMoments(reqs []Request) (mean, second, inverse float64, err error) {
	if len(reqs) == 0 {
		return 0, 0, 0, errors.New("workload: empty trace")
	}
	for _, r := range reqs {
		if !(r.Size > 0) {
			return 0, 0, 0, fmt.Errorf("workload: non-positive size %v", r.Size)
		}
		mean += r.Size
		second += float64(r.Size * r.Size)
		inverse += 1 / r.Size
	}
	n := float64(len(reqs))
	return mean / n, second / n, inverse / n, nil
}
