// Source-spec grammar and the named-source registry.
//
// A spec names a source pipeline declaratively:
//
//	spec     = pipeline { "+" pipeline }          merge, time-ordered
//	pipeline = head { "|" transform }
//	head     = "csv:PATH" | "swf:PATH"
//	         | "synthetic[:k=v,...]"               keys: seed weeks nodes mix load
//	         | NAME[":ARG"]                        a source registered with Register
//	transform= "relabel:paper" | "relabel:k=v,..." keys: seed od rigid mix leadmin
//	                                                     leadmax late cap minfrac
//	         | "scale:F"    arrival times ÷ F (load × F)
//	         | "shift:SECS" translate all instants
//	         | "limit:N"    first N records
//	         | "filter:k=v,..."                    keys: class project minsize maxsize
//
// Durations (leadmin, leadmax, late, shift) are integer seconds. Paths may
// not contain '|' or '+'; quote nothing — the grammar is deliberately
// shell-friendly.
package source

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hybridsched/internal/job"
	"hybridsched/internal/trace"
	"hybridsched/internal/workload"
)

// Factory builds a Source from the argument text of a registered spec head
// ("name:arg" invokes the factory registered under "name" with "arg"; a bare
// "name" passes ""). Factories run once per Parse and must return a fresh,
// single-use Source.
type Factory func(arg string) (Source, error)

var (
	regMu      sync.RWMutex
	registered = map[string]Factory{}
)

// builtinHeads lists the always-available spec heads in canonical order.
func builtinHeads() []string { return []string{"csv", "swf", "borg", "alibaba", "synthetic"} }

// transformNames lists the pipeline transforms (reserved words).
func transformNames() []string {
	return []string{"relabel", "scale", "shift", "limit", "filter", "shard"}
}

// Register makes factory resolvable as a spec head everywhere specs are
// accepted (sessions, sweeps, the CLI tools), mirroring the scheduler and
// policy registries: registration is append-only and fails on an empty name,
// a name containing grammar metacharacters, a built-in collision (including
// transform names), or a duplicate.
func Register(name string, factory Factory) error {
	if name == "" {
		return fmt.Errorf("source: empty source name")
	}
	if factory == nil {
		return fmt.Errorf("source: nil factory for source %q", name)
	}
	if strings.ContainsAny(name, ":|+ \t") {
		return fmt.Errorf("source: name %q contains spec metacharacters", name)
	}
	for _, b := range append(builtinHeads(), transformNames()...) {
		if name == b {
			return fmt.Errorf("source: source %q is a built-in", name)
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registered[name]; dup {
		return fmt.Errorf("source: source %q already registered", name)
	}
	registered[name] = factory
	return nil
}

// Names returns every resolvable spec head: the built-ins in canonical
// order, then registered extensions sorted alphabetically.
func Names() []string {
	names := builtinHeads()
	regMu.RLock()
	extra := make([]string, 0, len(registered))
	for name := range registered {
		extra = append(extra, name)
	}
	regMu.RUnlock()
	sort.Strings(extra)
	return append(names, extra...)
}

// lookup resolves a registered head (nil if unknown).
func lookup(name string) Factory {
	regMu.RLock()
	defer regMu.RUnlock()
	return registered[name]
}

// Open returns a streaming Source over a trace file, dispatching on the
// extension after stripping a trailing ".gz" (".swf"/".swf.gz" → SWF,
// anything else → native CSV; gzip itself is detected by content, so the
// suffix only picks the dialect). The Borg and Alibaba corpus formats are
// not sniffed — name them explicitly with the "borg:"/"alibaba:" spec heads.
// The file is closed once the stream is drained or fails.
func Open(path string) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("source: %w", err)
	}
	name := strings.TrimSuffix(strings.ToLower(path), ".gz")
	if strings.HasSuffix(name, ".swf") {
		return WithCloser(FromSWF(f), f), nil
	}
	return WithCloser(FromCSV(f), f), nil
}

// Parse compiles a source spec into a Source. File-backed pipelines open
// their files immediately (so a bad path fails at parse time) but read them
// lazily; on a parse error every file already opened is closed before
// returning, so repeated parsing of bad specs cannot leak descriptors.
func Parse(spec string) (Source, error) {
	var opened []io.Closer
	fail := func(err error) (Source, error) {
		for _, c := range opened {
			c.Close()
		}
		return nil, err
	}
	parts := strings.Split(spec, "+")
	srcs := make([]Source, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return fail(fmt.Errorf("source: empty pipeline in spec %q", spec))
		}
		src, err := parsePipeline(p, &opened)
		if err != nil {
			return fail(err)
		}
		srcs = append(srcs, src)
	}
	if len(srcs) == 0 {
		return fail(fmt.Errorf("source: empty spec"))
	}
	return Merge(srcs...), nil
}

func parsePipeline(p string, opened *[]io.Closer) (Source, error) {
	stages := strings.Split(p, "|")
	src, err := parseHead(strings.TrimSpace(stages[0]), opened)
	if err != nil {
		return nil, err
	}
	for _, st := range stages[1:] {
		src, err = parseTransform(src, strings.TrimSpace(st))
		if err != nil {
			return nil, err
		}
	}
	return src, nil
}

// splitOp separates "op:arg" (arg may be empty or absent).
func splitOp(s string) (op, arg string) {
	if i := strings.IndexByte(s, ':'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

func parseHead(head string, opened *[]io.Closer) (Source, error) {
	op, arg := splitOp(head)
	switch op {
	case "csv", "swf", "borg", "alibaba":
		if arg == "" {
			return nil, fmt.Errorf("source: %s head needs a path (%s:PATH)", op, op)
		}
		f, err := os.Open(arg)
		if err != nil {
			return nil, fmt.Errorf("source: %w", err)
		}
		*opened = append(*opened, f)
		switch op {
		case "swf":
			return WithCloser(FromSWF(f), f), nil
		case "borg":
			return WithCloser(FromBorg(f), f), nil
		case "alibaba":
			return WithCloser(FromAlibaba(f), f), nil
		}
		return WithCloser(FromCSV(f), f), nil
	case "synthetic":
		cfg, err := parseSyntheticArgs(arg)
		if err != nil {
			return nil, err
		}
		return Synthetic(cfg), nil
	}
	if f := lookup(op); f != nil {
		return f(arg)
	}
	return nil, fmt.Errorf("source: unknown source %q (valid: %s)", op, strings.Join(Names(), ", "))
}

func parseTransform(src Source, st string) (Source, error) {
	op, arg := splitOp(st)
	switch op {
	case "relabel":
		rule, err := parseRelabelArgs(arg)
		if err != nil {
			return nil, err
		}
		return Relabel(src, rule), nil
	case "scale":
		f, err := strconv.ParseFloat(arg, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("source: scale wants a positive factor, got %q", arg)
		}
		return Scale(src, f), nil
	case "shift":
		dt, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("source: shift wants integer seconds, got %q", arg)
		}
		return Shift(src, dt), nil
	case "limit":
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("source: limit wants a non-negative count, got %q", arg)
		}
		return Limit(src, n), nil
	case "filter":
		keep, err := parseFilterArgs(arg)
		if err != nil {
			return nil, err
		}
		return Filter(src, keep), nil
	case "shard":
		i, n, err := parseShardArg(arg)
		if err != nil {
			return nil, err
		}
		return Shard(src, n, i), nil
	}
	return nil, fmt.Errorf("source: unknown transform %q (valid: %s)",
		op, strings.Join(transformNames(), ", "))
}

// parseKVs splits "k=v,k=v" into a key-ordered list (order matters for
// deterministic error messages, not semantics).
func parseKVs(arg string) ([][2]string, error) {
	if arg == "" {
		return nil, nil
	}
	parts := strings.Split(arg, ",")
	out := make([][2]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		k, v, ok := strings.Cut(p, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("source: bad key=value %q", p)
		}
		out = append(out, [2]string{k, v})
	}
	return out, nil
}

func parseSyntheticArgs(arg string) (workload.Config, error) {
	var cfg workload.Config
	kvs, err := parseKVs(arg)
	if err != nil {
		return cfg, err
	}
	for _, kv := range kvs {
		k, v := kv[0], kv[1]
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "weeks":
			cfg.Weeks, err = strconv.Atoi(v)
		case "nodes":
			cfg.Nodes, err = strconv.Atoi(v)
		case "load":
			cfg.TargetLoad, err = strconv.ParseFloat(v, 64)
		case "mix":
			cfg.Mix, err = workload.MixByName(v)
		default:
			return cfg, fmt.Errorf("source: unknown synthetic key %q (valid: seed, weeks, nodes, load, mix)", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("source: synthetic %s=%q: %w", k, v, err)
		}
	}
	return cfg, nil
}

func parseRelabelArgs(arg string) (RelabelRule, error) {
	var rule RelabelRule
	if arg == "" || arg == "paper" {
		return rule, nil // zero rule normalizes to the paper defaults
	}
	kvs, err := parseKVs(arg)
	if err != nil {
		return rule, err
	}
	// The rule struct uses zero = "paper default", negative = explicit zero;
	// in the grammar an explicit 0 means 0, so map it onto the sentinel.
	zf := func(v float64) float64 {
		if v == 0 {
			return -1
		}
		return v
	}
	zi := func(v int64) int64 {
		if v == 0 {
			return -1
		}
		return v
	}
	for _, kv := range kvs {
		k, v := kv[0], kv[1]
		var err error
		var f float64
		var i int64
		switch k {
		case "seed":
			rule.Seed, err = strconv.ParseInt(v, 10, 64)
		case "od":
			f, err = strconv.ParseFloat(v, 64)
			rule.OnDemandFrac = zf(f)
		case "rigid":
			f, err = strconv.ParseFloat(v, 64)
			rule.RigidFrac = zf(f)
		case "mix":
			rule.Mix, err = workload.MixByName(v)
		case "leadmin":
			i, err = strconv.ParseInt(v, 10, 64)
			rule.NoticeLeadMin = zi(i)
		case "leadmax":
			i, err = strconv.ParseInt(v, 10, 64)
			rule.NoticeLeadMax = zi(i)
		case "late":
			i, err = strconv.ParseInt(v, 10, 64)
			rule.LateWindow = zi(i)
		case "cap":
			rule.OnDemandMaxSize, err = strconv.Atoi(v)
		case "minfrac":
			f, err = strconv.ParseFloat(v, 64)
			rule.MalleableMinFrac = zf(f)
		default:
			return rule, fmt.Errorf("source: unknown relabel key %q (valid: seed, od, rigid, mix, leadmin, leadmax, late, cap, minfrac)", k)
		}
		if err != nil {
			return rule, fmt.Errorf("source: relabel %s=%q: %w", k, v, err)
		}
	}
	return rule, nil
}

func parseFilterArgs(arg string) (func(trace.Record) bool, error) {
	kvs, err := parseKVs(arg)
	if err != nil {
		return nil, err
	}
	if len(kvs) == 0 {
		return nil, fmt.Errorf("source: filter needs at least one key=value (valid: class, project, minsize, maxsize)")
	}
	var preds []func(trace.Record) bool
	for _, kv := range kvs {
		k, v := kv[0], kv[1]
		switch k {
		case "class":
			class, ok := job.ParseClass(v)
			if !ok {
				return nil, fmt.Errorf("source: filter class %q (valid: rigid, on-demand, malleable)", v)
			}
			preds = append(preds, func(r trace.Record) bool { return r.Class == class })
		case "project":
			p, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("source: filter project=%q: %w", v, err)
			}
			preds = append(preds, func(r trace.Record) bool { return r.Project == p })
		case "minsize":
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("source: filter minsize=%q: %w", v, err)
			}
			preds = append(preds, func(r trace.Record) bool { return r.Size >= n })
		case "maxsize":
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("source: filter maxsize=%q: %w", v, err)
			}
			preds = append(preds, func(r trace.Record) bool { return r.Size <= n })
		default:
			return nil, fmt.Errorf("source: unknown filter key %q (valid: class, project, minsize, maxsize)", k)
		}
	}
	return func(r trace.Record) bool {
		for _, p := range preds {
			if !p(r) {
				return false
			}
		}
		return true
	}, nil
}

// parseShardArg parses the "I/N" argument of the shard transform (0-based
// shard index I of N total shards, e.g. shard:0/4).
func parseShardArg(arg string) (i, n int, err error) {
	is, ns, ok := strings.Cut(arg, "/")
	if !ok {
		return 0, 0, fmt.Errorf("source: shard needs I/N (e.g. shard:0/4), got %q", arg)
	}
	if i, err = strconv.Atoi(is); err != nil {
		return 0, 0, fmt.Errorf("source: shard index %q: %w", is, err)
	}
	if n, err = strconv.Atoi(ns); err != nil {
		return 0, 0, fmt.Errorf("source: shard count %q: %w", ns, err)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("source: shard %d/%d invalid (want 0 <= i < n)", i, n)
	}
	return i, n, nil
}
