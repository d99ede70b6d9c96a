package cyclic

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"regsat/internal/ddg"
)

// The textual loop format extends the flat .ddg format with a `loop` header
// flag and a per-edge iteration distance:
//
//	ddg "<name>" machine=<superscalar|vliw|epic> loop
//	node <name> op=<mnemonic> lat=<n> [writes=<type>[:<δw>]] [dr=<δr>]
//	edge <from> <to> flow <type> [lat=<n>] [dist=<ω>]
//	edge <from> <to> serial lat=<n> [dist=<ω>]
//	# comments and blank lines are ignored
//
// dist defaults to 0 (an ordinary intra-iteration dependence). Unlike the
// flat format, self-edges are legal — a first-order recurrence is
// `edge a a flow float dist=1` — provided the distance is positive.
// Syntax errors are reported as *ddg.ParseError with line/column positions,
// so tooling treats both formats uniformly.

// Detect reports whether the text is in the cyclic loop format: its first
// directive is a ddg header carrying the `loop` flag. Loaders use it to
// route a .ddg file to this parser or the flat one.
func Detect(text string) bool {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "ddg") {
			return false
		}
		fields := strings.Fields(line)
		for _, f := range fields[1:] {
			if f == "loop" {
				return true
			}
		}
		return false
	}
	return false
}

func errTok(token, format string, args ...any) *ddg.ParseError {
	return &ddg.ParseError{Token: token, Msg: fmt.Sprintf(format, args...)}
}

func errLine(format string, args ...any) *ddg.ParseError {
	return &ddg.ParseError{Msg: fmt.Sprintf(format, args...)}
}

// locate stamps the error with its line and, when the offending token is
// known, the token's 1-based column in the original (untrimmed) line.
func locate(err *ddg.ParseError, lineNo int, raw string) *ddg.ParseError {
	err.Line = lineNo
	if err.Token != "" {
		err.Col = columnOf(raw, err.Token)
	}
	return err
}

// columnOf finds the token's 1-based byte column, preferring whole-field
// matches (mirrors the flat parser's locator).
func columnOf(raw, token string) int {
	isSpace := func(b byte) bool { return b == ' ' || b == '\t' }
	for from := 0; from+len(token) <= len(raw); {
		i := strings.Index(raw[from:], token)
		if i < 0 {
			break
		}
		start := from + i
		end := start + len(token)
		if (start == 0 || isSpace(raw[start-1])) && (end == len(raw) || isSpace(raw[end])) {
			return start + 1
		}
		from = start + 1
	}
	if i := strings.Index(raw, token); i >= 0 {
		return i + 1
	}
	return 0
}

// Parse reads a loop in the textual format. The result is not validated —
// call Validate (the analyses do) — but structural panics of the builder API
// (unknown nodes, bad offsets) are caught and reported as parse errors.
func Parse(r io.Reader) (*Loop, error) {
	sc := bufio.NewScanner(r)
	var l *Loop
	names := map[string]int{} // node name → ID, so edges resolve in O(1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var err *ddg.ParseError
		switch fields[0] {
		case "ddg":
			if l != nil {
				err = errTok(fields[0], "duplicate ddg directive")
				break
			}
			l, err = parseHeader(strings.TrimSpace(line[len("ddg"):]))
		case "node":
			if l == nil {
				err = errTok(fields[0], "node before ddg directive")
				break
			}
			err = parseNode(l, names, fields[1:])
		case "edge":
			if l == nil {
				err = errTok(fields[0], "edge before ddg directive")
				break
			}
			err = parseEdge(l, names, fields[1:])
		default:
			err = errTok(fields[0], "unknown directive %q", fields[0])
		}
		if err != nil {
			return nil, locate(err, lineNo, raw)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if l == nil {
		return nil, fmt.Errorf("no ddg directive found")
	}
	return l, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Loop, error) {
	return Parse(strings.NewReader(s))
}

func parseHeader(rest string) (*Loop, *ddg.ParseError) {
	if rest == "" {
		return nil, errLine("ddg directive needs a name")
	}
	var name string
	var attrs []string
	if strings.HasPrefix(rest, `"`) {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return nil, errLine("bad quoted ddg name %s", rest)
		}
		name, err = strconv.Unquote(q)
		if err != nil {
			return nil, errLine("bad quoted ddg name %s", q)
		}
		attrs = strings.Fields(rest[len(q):])
	} else {
		fs := strings.Fields(rest)
		name = fs[0]
		attrs = fs[1:]
	}
	machine := ddg.Superscalar
	loop := false
	for _, f := range attrs {
		if f == "loop" {
			loop = true
			continue
		}
		k, v, ok := strings.Cut(f, "=")
		if !ok || k != "machine" {
			return nil, errTok(f, "bad ddg attribute %q", f)
		}
		switch v {
		case "superscalar":
			machine = ddg.Superscalar
		case "vliw":
			machine = ddg.VLIW
		case "epic":
			machine = ddg.EPIC
		default:
			return nil, errTok(f, "unknown machine %q", v)
		}
	}
	if !loop {
		return nil, errLine("cyclic parser needs the loop flag on the ddg directive")
	}
	return New(name, machine), nil
}

func parseNode(l *Loop, names map[string]int, fields []string) *ddg.ParseError {
	if len(fields) < 1 {
		return errLine("node needs a name")
	}
	name := fields[0]
	if _, dup := names[name]; dup {
		return errTok(name, "duplicate node %q", name)
	}
	op := "op"
	var lat, dr int64
	type writeSpec struct {
		t  ddg.RegType
		dw int64
	}
	var writes []writeSpec
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return errTok(f, "bad node attribute %q", f)
		}
		switch k {
		case "op":
			op = v
		case "lat":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return errTok(f, "bad lat %q", v)
			}
			if n < 0 {
				return errTok(f, "node latency must be non-negative, got %d", n)
			}
			lat = n
		case "dr":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return errTok(f, "bad dr %q", v)
			}
			if n != 0 && !l.Machine.HasOffsets() {
				return errTok(f, "reading offset dr on a superscalar machine")
			}
			dr = n
		case "writes":
			for _, spec := range strings.Split(v, ",") {
				tname, dws, has := strings.Cut(spec, ":")
				if tname == "" {
					return errTok(f, "empty register type in %q", v)
				}
				var dw int64
				if has {
					n, err := strconv.ParseInt(dws, 10, 64)
					if err != nil {
						return errTok(spec, "bad δw in %q", spec)
					}
					if n != 0 && !l.Machine.HasOffsets() {
						return errTok(spec, "writing offset δw on a superscalar machine")
					}
					dw = n
				}
				writes = append(writes, writeSpec{ddg.RegType(tname), dw})
			}
		default:
			return errTok(f, "unknown node attribute %q", k)
		}
	}
	id := l.AddNode(name, op, lat)
	names[name] = id
	if dr != 0 {
		l.SetReadDelay(id, dr)
	}
	for _, w := range writes {
		l.SetWrites(id, w.t, w.dw)
	}
	return nil
}

func parseEdge(l *Loop, names map[string]int, fields []string) *ddg.ParseError {
	if len(fields) < 3 {
		return errLine("edge needs: from to kind …")
	}
	from, ok := names[fields[0]]
	if !ok {
		return errTok(fields[0], "edge references unknown node %q", fields[0])
	}
	to, ok := names[fields[1]]
	if !ok {
		return errTok(fields[1], "edge references unknown node %q", fields[1])
	}
	parseDist := func(f, v string) (int64, *ddg.ParseError) {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, errTok(f, "bad dist %q", v)
		}
		if n < 0 {
			return 0, errTok(f, "iteration distance must be non-negative, got %d", n)
		}
		if n > MaxDist {
			return 0, errTok(f, "iteration distance %d exceeds MaxDist %d", n, MaxDist)
		}
		return n, nil
	}
	switch fields[2] {
	case "flow":
		if len(fields) < 4 {
			return errLine("flow edge needs a register type")
		}
		t := ddg.RegType(fields[3])
		if !l.Node(from).WritesType(t) {
			return errTok(fields[3], "flow edge from %q, which does not write type %q", fields[0], t)
		}
		lat := l.Node(from).Latency
		var dist int64
		for _, f := range fields[4:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return errTok(f, "bad flow edge attribute %q", f)
			}
			switch k {
			case "lat":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return errTok(f, "bad lat %q", v)
				}
				lat = n
			case "dist":
				var derr *ddg.ParseError
				if dist, derr = parseDist(f, v); derr != nil {
					return derr
				}
			default:
				return errTok(f, "bad flow edge attribute %q", f)
			}
		}
		if from == to && dist == 0 {
			return errTok(fields[1], "zero-distance self-edge on node %q", fields[0])
		}
		l.AddFlowEdgeLatency(from, to, t, lat, dist)
	case "serial":
		lat := int64(0)
		found := false
		var dist int64
		for _, f := range fields[3:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return errTok(f, "bad serial edge attribute %q", f)
			}
			switch k {
			case "lat":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return errTok(f, "bad lat %q", v)
				}
				lat, found = n, true
			case "dist":
				var derr *ddg.ParseError
				if dist, derr = parseDist(f, v); derr != nil {
					return derr
				}
			default:
				return errTok(f, "bad serial edge attribute %q", f)
			}
		}
		if !found {
			return errLine("serial edge needs lat=<n>")
		}
		if lat < 0 && !l.Machine.HasOffsets() {
			return errLine("negative serial latency on a superscalar machine")
		}
		if from == to && dist == 0 {
			return errTok(fields[1], "zero-distance self-edge on node %q", fields[0])
		}
		l.AddSerialEdge(from, to, lat, dist)
	default:
		return errTok(fields[2], "unknown edge kind %q", fields[2])
	}
	return nil
}

// Format renders the loop in the textual format; Parse(Format(l)) is the
// identity up to fingerprint.
func (l *Loop) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ddg %q machine=%s loop\n", l.Name, l.Machine)
	for i := range l.nodes {
		n := &l.nodes[i]
		fmt.Fprintf(&b, "node %s op=%s lat=%d", n.Name, n.Op, n.Latency)
		if len(n.Writes) > 0 {
			types := make([]string, 0, len(n.Writes))
			for t := range n.Writes {
				types = append(types, string(t))
			}
			sort.Strings(types)
			specs := make([]string, 0, len(types))
			for _, t := range types {
				dw := n.Writes[ddg.RegType(t)]
				if dw != 0 {
					specs = append(specs, fmt.Sprintf("%s:%d", t, dw))
				} else {
					specs = append(specs, t)
				}
			}
			fmt.Fprintf(&b, " writes=%s", strings.Join(specs, ","))
		}
		if n.DelayR != 0 {
			fmt.Fprintf(&b, " dr=%d", n.DelayR)
		}
		b.WriteString("\n")
	}
	for _, e := range l.edges {
		if e.Kind == ddg.Flow {
			fmt.Fprintf(&b, "edge %s %s flow %s", l.nodes[e.From].Name, l.nodes[e.To].Name, e.Type)
			if e.Latency != l.nodes[e.From].Latency {
				fmt.Fprintf(&b, " lat=%d", e.Latency)
			}
		} else {
			fmt.Fprintf(&b, "edge %s %s serial lat=%d", l.nodes[e.From].Name, l.nodes[e.To].Name, e.Latency)
		}
		if e.Dist != 0 {
			fmt.Fprintf(&b, " dist=%d", e.Dist)
		}
		b.WriteString("\n")
	}
	return b.String()
}
