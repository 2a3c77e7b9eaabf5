package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file is a validating parser for the Prometheus text exposition
// format (version 0.0.4). The golden tests and the CI loadgen scrape
// run every /metrics response through it: metric and label names must
// be legal, TYPE headers must precede and match their samples, label
// values must unescape, families must not interleave, and histogram
// buckets must be cumulative with a terminal +Inf equal to _count.

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ExpoSample is one parsed sample line.
type ExpoSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Exposition is the parsed form of one /metrics response.
type Exposition struct {
	// Types maps family name → declared TYPE.
	Types map[string]string
	// Samples holds every sample line in input order.
	Samples []ExpoSample
}

// Value returns the value of the sample with the given name whose
// labels include all of want (extra labels are allowed), and whether
// one exists. With several matches the first wins.
func (e *Exposition) Value(name string, want map[string]string) (float64, bool) {
	for _, s := range e.Samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s.Value, true
		}
	}
	return 0, false
}

// ParseExposition parses and validates a text-format exposition,
// returning the typed samples or the first format violation.
func ParseExposition(r io.Reader) (*Exposition, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	exp := &Exposition{Types: make(map[string]string)}
	// closed marks families whose sample block has ended: a later
	// sample for them means interleaved families.
	closed := make(map[string]bool)
	current := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			if !metricNameRE.MatchString(name) {
				return nil, fmt.Errorf("line %d: bad metric name %q in %s", lineNo, name, fields[1])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: TYPE without a type", lineNo)
				}
				typ := fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown TYPE %q", lineNo, typ)
				}
				if _, dup := exp.Types[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				if closed[name] {
					return nil, fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				exp.Types[name] = typ
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := familyOf(s.Name, exp.Types)
		if typ, ok := exp.Types[fam]; ok {
			if err := checkSuffix(s.Name, fam, typ); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
		if current != fam {
			if closed[fam] {
				return nil, fmt.Errorf("line %d: samples for %s are not contiguous", lineNo, fam)
			}
			if current != "" {
				closed[current] = true
			}
			current = fam
		}
		exp.Samples = append(exp.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return exp, checkHistograms(exp)
}

// familyOf strips histogram sample suffixes when the base name has a
// histogram TYPE declared.
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// checkSuffix enforces that a family's samples use only the sample
// names its TYPE allows.
func checkSuffix(name, fam, typ string) error {
	if typ == "histogram" {
		switch name {
		case fam + "_bucket", fam + "_sum", fam + "_count":
			return nil
		default:
			return fmt.Errorf("histogram %s has non-histogram sample %s", fam, name)
		}
	}
	if name != fam {
		return fmt.Errorf("%s sample %s does not match family %s", typ, name, fam)
	}
	return nil
}

// parseSampleLine parses `name{l="v",...} value` (timestamps are not
// produced by this registry and are rejected).
func parseSampleLine(line string) (ExpoSample, error) {
	s := ExpoSample{Labels: make(map[string]string)}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !metricNameRE.MatchString(s.Name) {
		return s, fmt.Errorf("bad metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " ")
	if strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("unexpected trailing fields in %q", line)
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

// parseValue accepts floats plus the exposition's +Inf/-Inf/NaN.
func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(v, 64)
}

// parseLabels parses a `{name="value",...}` block starting at s[0]=='{'
// into out, returning the index just past the closing brace.
func parseLabels(s string, out map[string]string) (int, error) {
	i := 1
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		j := strings.Index(s[i:], "=")
		if j < 0 {
			return 0, fmt.Errorf("label without '='")
		}
		name := s[i : i+j]
		if !labelNameRE.MatchString(name) {
			return 0, fmt.Errorf("bad label name %q", name)
		}
		i += j + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label value for %q is not quoted", name)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("unterminated label value for %q", name)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, fmt.Errorf("dangling escape in label value for %q", name)
				}
				switch s[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return 0, fmt.Errorf("bad escape \\%c in label value for %q", s[i+1], name)
				}
				i += 2
				continue
			}
			b.WriteByte(c)
			i++
		}
		if _, dup := out[name]; dup {
			return 0, fmt.Errorf("duplicate label %q", name)
		}
		out[name] = b.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// checkHistograms verifies every histogram family: per label set, le
// bounds strictly ascending, cumulative counts non-decreasing, a
// terminal +Inf bucket present and equal to _count.
func checkHistograms(exp *Exposition) error {
	type bucket struct {
		le  float64
		val float64
	}
	buckets := make(map[string][]bucket) // fam + labelsig (sans le)
	counts := make(map[string]float64)
	haveCount := make(map[string]bool)
	for _, s := range exp.Samples {
		fam := familyOf(s.Name, exp.Types)
		if exp.Types[fam] != "histogram" {
			continue
		}
		key := fam + sigWithout(s.Labels, "le")
		switch s.Name {
		case fam + "_bucket":
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %s bucket without le label", fam)
			}
			le, err := parseValue(leStr)
			if err != nil {
				return fmt.Errorf("histogram %s: bad le %q", fam, leStr)
			}
			buckets[key] = append(buckets[key], bucket{le: le, val: s.Value})
		case fam + "_count":
			counts[key] = s.Value
			haveCount[key] = true
		}
	}
	for key, bs := range buckets {
		for i := 1; i < len(bs); i++ {
			if !(bs[i].le > bs[i-1].le) {
				return fmt.Errorf("histogram series %s: le bounds not ascending (%g after %g)",
					key, bs[i].le, bs[i-1].le)
			}
			if bs[i].val < bs[i-1].val {
				return fmt.Errorf("histogram series %s: cumulative counts decrease at le=%g (%g < %g)",
					key, bs[i].le, bs[i].val, bs[i-1].val)
			}
		}
		last := bs[len(bs)-1]
		if !math.IsInf(last.le, 1) {
			return fmt.Errorf("histogram series %s: missing +Inf bucket", key)
		}
		if !haveCount[key] {
			return fmt.Errorf("histogram series %s: missing _count", key)
		}
		if counts[key] != last.val {
			return fmt.Errorf("histogram series %s: +Inf bucket %g != _count %g",
				key, last.val, counts[key])
		}
	}
	return nil
}

// sigWithout renders a deterministic signature of labels minus one key.
func sigWithout(labels map[string]string, drop string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != drop {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteByte('{')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte('}')
	}
	return b.String()
}
