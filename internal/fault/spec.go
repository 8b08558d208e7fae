package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Spec is a parsed fault schedule: which fault sites fire and how
// often. The zero value injects nothing. Specs are written in a small
// clause grammar (see ParseSpec) so a schedule fits in one CLI flag
// and one test constant.
type Spec struct {
	// Drop is the probability an incoming telemetry report is dropped
	// before ingestion.
	Drop float64
	// Corrupt is the probability a report's payload fields are
	// scrambled before ingestion.
	Corrupt float64
	// Delay/DelayP: with probability DelayP, ingestion of a report is
	// delayed by up to Delay.
	Delay  time.Duration
	DelayP float64

	// StoreErr is the probability a prediction-log write fails with a
	// transient error (surfaced only on the store.Fallible path).
	StoreErr float64
	// StoreStall/StoreStallP: with probability StoreStallP, a
	// prediction-log write stalls for StoreStall before proceeding.
	StoreStall  time.Duration
	StoreStallP float64

	// WorkerPanic is the probability a shard panics at the start of a
	// scoring micro-batch, abandoning the rest of its pass.
	WorkerPanic float64

	// ModelFail maps a model name (or "*" for every model) to the
	// probability one of its batch scoring calls fails.
	ModelFail map[string]float64

	// PredictLatency/PredictLatencyP: with probability
	// PredictLatencyP, a model scoring call is delayed by up to
	// PredictLatency.
	PredictLatency  time.Duration
	PredictLatencyP float64

	// Netem holds per-link adverse-network impairments parsed from
	// netem[...] sections. It is consumed by the simulator's link
	// wiring (the testbed), not by the Injector: impairment is a
	// property of the wire, faults are properties of the pipeline.
	Netem NetemSpec
}

// Zero reports whether the spec injects nothing and impairs nothing.
func (s Spec) Zero() bool {
	return s.SitesZero() && s.Netem.Zero()
}

// SitesZero reports whether the spec fires no fault sites (it may
// still carry netem link impairments).
func (s Spec) SitesZero() bool {
	return s.Drop == 0 && s.Corrupt == 0 && s.DelayP == 0 &&
		s.StoreErr == 0 && s.StoreStallP == 0 && s.WorkerPanic == 0 &&
		len(s.ModelFail) == 0 && s.PredictLatencyP == 0
}

// OnlyNetem reports whether the spec consists of netem sections
// alone — the shape the standalone -netem flag requires.
func (s Spec) OnlyNetem() bool { return s.SitesZero() && len(s.Netem) > 0 }

// HasStoreFaults reports whether the spec touches the store layer,
// i.e. whether a pipeline needs its store wrapped.
func (s Spec) HasStoreFaults() bool { return s.StoreErr > 0 || s.StoreStallP > 0 }

// ParseSpec parses a fault schedule written in the clause grammar
//
//	spec      := clause ("," clause)*
//	clause    := "drop=" P | "corrupt=" P | "delay=" DUR "@" P
//	           | "store.err=" P | "store.stall=" DUR "@" P
//	           | "panic=" P
//	           | "model.fail=" NAME "@" P
//	           | "latency=" DUR "@" P
//	P         := probability in [0,1]
//	DUR       := Go duration ("2ms", "150us", ...)
//	NAME      := model name as reported by Classifier.Name, or "*"
//
// for example "drop=0.01,store.stall=5ms@0.02,model.fail=GNB@0.5".
// Clauses may also be separated by semicolons or spaces. An empty
// string parses to the zero (inject-nothing) spec.
//
// The grammar composes with netem link-impairment sections (the
// adverse-network half of the scenario DSL):
//
//	section   := "netem[link=" LINK "]:" sub
//	sub       := "delay=" DUR | "jitter=" DUR | "loss=" PCT
//	           | "dup=" PCT | "reorder=" PCT | "rate=" RATE
//	           | "limit=" N
//
// A "netem[link=NAME]:" header opens a section; the comma-separated
// clauses that follow attach to it for as long as they use netem
// sub-clause names ("netem[link=agent->collector]:delay=2ms,
// jitter=1ms,loss=0.5%,dup=0.1%,rate=100mbit"). A fault clause name,
// a new netem header, or a semicolon closes the section. "delay" is
// shared between both grammars and disambiguated by shape: fault
// delay is DUR@P, netem delay a bare DUR. See ParseNetem for the
// sub-clause value forms.
//
// Parse errors name the offending clause by ordinal, text, and byte
// offset, so a long schedule's typo is findable.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	curLink := "" // open netem section, or ""
	for i, tok := range tokenizeSpec(s) {
		f := tok.text
		cerr := func(err error) error { return clauseErr(i, tok.off, f, err) }
		if tok.semi {
			curLink = ""
		}
		if strings.HasPrefix(f, "netem[") {
			link, sub, err := parseNetemHeader(f)
			if err != nil {
				return Spec{}, cerr(err)
			}
			if spec.Netem == nil {
				spec.Netem = NetemSpec{}
			}
			curLink = link
			li := spec.Netem[curLink]
			if sub != "" {
				name, val, ok := strings.Cut(sub, "=")
				if !ok {
					return Spec{}, cerr(fmt.Errorf("netem body %q: want name=value", sub))
				}
				if err := parseNetemSub(&li, name, val); err != nil {
					return Spec{}, cerr(err)
				}
			}
			spec.Netem[curLink] = li
			continue
		}
		name, val, ok := strings.Cut(f, "=")
		if !ok {
			return Spec{}, cerr(fmt.Errorf("want name=value"))
		}
		if curLink != "" && netemKeys[name] && !(name == "delay" && strings.Contains(val, "@")) {
			li := spec.Netem[curLink]
			if err := parseNetemSub(&li, name, val); err != nil {
				return Spec{}, cerr(err)
			}
			spec.Netem[curLink] = li
			continue
		}
		curLink = ""
		switch name {
		case "drop":
			p, err := parseProb(val)
			if err != nil {
				return Spec{}, cerr(err)
			}
			spec.Drop = p
		case "corrupt":
			p, err := parseProb(val)
			if err != nil {
				return Spec{}, cerr(err)
			}
			spec.Corrupt = p
		case "delay":
			d, p, err := parseDurProb(val)
			if err != nil {
				return Spec{}, cerr(err)
			}
			spec.Delay, spec.DelayP = d, p
		case "store.err":
			p, err := parseProb(val)
			if err != nil {
				return Spec{}, cerr(err)
			}
			spec.StoreErr = p
		case "store.stall":
			d, p, err := parseDurProb(val)
			if err != nil {
				return Spec{}, cerr(err)
			}
			spec.StoreStall, spec.StoreStallP = d, p
		case "panic":
			p, err := parseProb(val)
			if err != nil {
				return Spec{}, cerr(err)
			}
			spec.WorkerPanic = p
		case "model.fail":
			target, pstr, ok := strings.Cut(val, "@")
			if !ok || target == "" {
				return Spec{}, cerr(fmt.Errorf("want model.fail=NAME@P"))
			}
			p, err := parseProb(pstr)
			if err != nil {
				return Spec{}, cerr(err)
			}
			if spec.ModelFail == nil {
				spec.ModelFail = make(map[string]float64)
			}
			spec.ModelFail[target] = p
		case "latency":
			d, p, err := parseDurProb(val)
			if err != nil {
				return Spec{}, cerr(err)
			}
			spec.PredictLatency, spec.PredictLatencyP = d, p
		default:
			return Spec{}, cerr(fmt.Errorf("unknown clause name %q", name))
		}
	}
	return spec, nil
}

// specToken is one clause with its position in the source string, so
// parse errors can point at the offending clause.
type specToken struct {
	text string
	off  int  // byte offset of the clause in the spec string
	semi bool // a ';' preceded this clause (closes any open netem section)
}

// tokenizeSpec splits a spec on the separator set, keeping offsets.
func tokenizeSpec(s string) []specToken {
	isSep := func(c byte) bool {
		return c == ',' || c == ';' || c == ' ' || c == '\t' || c == '\n'
	}
	var toks []specToken
	semi := false
	for i := 0; i < len(s); {
		if isSep(s[i]) {
			if s[i] == ';' {
				semi = true
			}
			i++
			continue
		}
		j := i
		for j < len(s) && !isSep(s[j]) {
			j++
		}
		toks = append(toks, specToken{text: s[i:j], off: i, semi: semi})
		semi = false
		i = j
	}
	return toks
}

// parseNetemHeader splits a "netem[link=NAME]:first=sub" clause into
// the link name and the first sub-clause (which may be empty).
func parseNetemHeader(f string) (link, firstSub string, err error) {
	rest := strings.TrimPrefix(f, "netem[")
	head, body, ok := strings.Cut(rest, "]")
	if !ok {
		return "", "", fmt.Errorf("want netem[link=NAME]:...")
	}
	key, name, ok := strings.Cut(head, "=")
	if !ok || key != "link" || name == "" {
		return "", "", fmt.Errorf("want link=NAME inside netem[...], got %q", head)
	}
	if body == "" {
		return name, "", nil
	}
	sub, ok := strings.CutPrefix(body, ":")
	if !ok {
		return "", "", fmt.Errorf("want ':' after netem[link=%s]", name)
	}
	return name, sub, nil
}

// clauseErr wraps a clause parse failure with the clause's ordinal
// (1-based), text, and byte offset in the spec string.
func clauseErr(idx, off int, clause string, err error) error {
	return fmt.Errorf("fault: clause %d (%q, at offset %d): %w", idx+1, clause, off, err)
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}

func parseDurProb(s string) (time.Duration, float64, error) {
	dstr, pstr, ok := strings.Cut(s, "@")
	if !ok {
		return 0, 0, fmt.Errorf("want DUR@P, got %q", s)
	}
	d, err := time.ParseDuration(dstr)
	if err != nil {
		return 0, 0, err
	}
	if d < 0 {
		return 0, 0, fmt.Errorf("negative duration %v", d)
	}
	p, err := parseProb(pstr)
	if err != nil {
		return 0, 0, err
	}
	return d, p, nil
}

// String renders the spec back in the clause grammar; ParseSpec
// round-trips it.
func (s Spec) String() string {
	var parts []string
	add := func(format string, args ...any) { parts = append(parts, fmt.Sprintf(format, args...)) }
	if s.Drop > 0 {
		add("drop=%v", s.Drop)
	}
	if s.Corrupt > 0 {
		add("corrupt=%v", s.Corrupt)
	}
	if s.DelayP > 0 {
		add("delay=%v@%v", s.Delay, s.DelayP)
	}
	if s.StoreErr > 0 {
		add("store.err=%v", s.StoreErr)
	}
	if s.StoreStallP > 0 {
		add("store.stall=%v@%v", s.StoreStall, s.StoreStallP)
	}
	if s.WorkerPanic > 0 {
		add("panic=%v", s.WorkerPanic)
	}
	names := make([]string, 0, len(s.ModelFail))
	for name := range s.ModelFail {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		add("model.fail=%s@%v", name, s.ModelFail[name])
	}
	if s.PredictLatencyP > 0 {
		add("latency=%v@%v", s.PredictLatency, s.PredictLatencyP)
	}
	if len(s.Netem) > 0 {
		// Each section is one part: its comma-joined sub-clauses
		// re-attach to the section when reparsed, so the rendered
		// spec round-trips through ParseSpec.
		links := make([]string, 0, len(s.Netem))
		for link := range s.Netem {
			links = append(links, link)
		}
		sort.Strings(links)
		for _, link := range links {
			add("netem[link=%s]:%s", link, s.Netem[link].String())
		}
	}
	return strings.Join(parts, ",")
}
