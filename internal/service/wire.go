package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/isa"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// The simulate wire. SimulateRequest and SimulateResponse cross the wire as
// JSON, and only as JSON; what this file adds is a second way to produce and
// to read the one form encoding/json itself writes for them — fields in
// declaration order, no whitespace, omitempty fields absent, nil slices as
// null, strings without escapes. The encoders append exactly the bytes
// json.Marshal would and the decoders accept exactly those bytes (plus
// trailing whitespace). Anything else makes them decline: an encoder meets a
// string that needs escaping or a non-finite float, a decoder meets a byte it
// did not expect. Declining has no side effect, and the caller then hands the
// same value, or the same buffered bytes, to encoding/json — so which path
// ran is decided by the form of the input alone and cannot change what is
// accepted, rejected or produced. ARCHITECTURE.md, "The simulate wire".

// appendSimulateRequest appends req as json.Marshal renders it. ok is false,
// and dst's contents then meaningless, when a string needs escaping.
func appendSimulateRequest(dst []byte, req *SimulateRequest) (_ []byte, ok bool) {
	dst = append(dst, `{"arch":`...)
	if dst, ok = appendPlainString(dst, req.Arch); !ok {
		return dst, false
	}
	dst = append(dst, `,"workload":{"kind":`...)
	if dst, ok = appendPlainString(dst, req.Workload.Kind); !ok {
		return dst, false
	}
	if req.Workload.Scale != "" {
		dst = append(dst, `,"scale":`...)
		if dst, ok = appendPlainString(dst, req.Workload.Scale); !ok {
			return dst, false
		}
	}
	if req.Workload.Group != 0 {
		dst = append(dst, `,"group":`...)
		dst = strconv.AppendInt(dst, int64(req.Workload.Group), 10)
	}
	if len(req.Workload.Dims) > 0 {
		dst = append(dst, `,"dims":`...)
		dst = appendInts(dst, req.Workload.Dims, ',')
	}
	dst = append(dst, `},"candidates":`...)
	if req.Candidates == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range req.Candidates {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"steps":`...)
			if dst, ok = appendSteps(dst, req.Candidates[i].Steps); !ok {
				return dst, false
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), true
}

func appendSteps(dst []byte, steps []schedule.Step) (_ []byte, ok bool) {
	if steps == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i := range steps {
		st := &steps[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"Kind":`...)
		if dst, ok = appendPlainString(dst, st.Kind); !ok {
			return dst, false
		}
		dst = append(dst, `,"Leaf":`...)
		dst = strconv.AppendInt(dst, int64(st.Leaf), 10)
		dst = append(dst, `,"Factor":`...)
		dst = strconv.AppendInt(dst, int64(st.Factor), 10)
		dst = append(dst, `,"Perm":`...)
		if st.Perm == nil {
			dst = append(dst, "null"...)
		} else {
			dst = appendInts(dst, st.Perm, ',')
		}
		dst = append(dst, `,"Ann":`...)
		dst = strconv.AppendInt(dst, int64(st.Ann), 10)
		dst = append(dst, '}')
	}
	return append(dst, ']'), true
}

// appendSimulateResponse appends resp as json.Marshal renders it. ok is
// false when a string needs escaping or SimWallSeconds is not finite.
func appendSimulateResponse(dst []byte, resp *SimulateResponse) (_ []byte, ok bool) {
	dst = append(dst, `{"results":`...)
	if resp.Results == nil {
		return append(dst, "null}"...), true
	}
	dst = append(dst, '[')
	for i := range resp.Results {
		r := &resp.Results[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		first := true
		if r.Stats != nil {
			dst = append(dst, `"stats":`...)
			if dst, ok = appendStats(dst, r.Stats); !ok {
				return dst, false
			}
			first = false
		}
		if r.CacheHit {
			if !first {
				dst = append(dst, ',')
			}
			dst = append(dst, `"cache_hit":true`...)
			first = false
		}
		if r.Err != "" {
			if !first {
				dst = append(dst, ',')
			}
			dst = append(dst, `"err":`...)
			if dst, ok = appendPlainString(dst, r.Err); !ok {
				return dst, false
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), true
}

func appendStats(dst []byte, st *sim.Stats) (_ []byte, ok bool) {
	dst = append(dst, `{"Arch":`...)
	if dst, ok = appendPlainString(dst, string(st.Arch)); !ok {
		return dst, false
	}
	dst = append(dst, `,"Instr":`...)
	dst = appendUints(dst, st.Instr[:])
	dst = append(dst, `,"Total":`...)
	dst = strconv.AppendUint(dst, st.Total, 10)
	dst = append(dst, `,"Loads":`...)
	dst = strconv.AppendUint(dst, st.Loads, 10)
	dst = append(dst, `,"Stores":`...)
	dst = strconv.AppendUint(dst, st.Stores, 10)
	dst = append(dst, `,"Branches":`...)
	dst = strconv.AppendUint(dst, st.Branches, 10)
	dst = append(dst, `,"LoopExits":`...)
	dst = strconv.AppendUint(dst, st.LoopExits, 10)
	dst = append(dst, `,"SinkEvents":`...)
	dst = strconv.AppendUint(dst, st.SinkEvents, 10)
	dst = append(dst, `,"Caches":`...)
	if st.Caches == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range st.Caches {
			lv := &st.Caches[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"Name":`...)
			if dst, ok = appendPlainString(dst, lv.Name); !ok {
				return dst, false
			}
			dst = append(dst, `,"Stats":{"Hits":`...)
			dst = appendUints(dst, lv.Stats.Hits[:])
			dst = append(dst, `,"Misses":`...)
			dst = appendUints(dst, lv.Stats.Misses[:])
			dst = append(dst, `,"Repl":`...)
			dst = appendUints(dst, lv.Stats.Repl[:])
			dst = append(dst, `,"Writebacks":`...)
			dst = strconv.AppendUint(dst, lv.Stats.Writebacks, 10)
			dst = append(dst, "}}"...)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"SimWallSeconds":`...)
	if dst, ok = appendJSONFloat(dst, st.SimWallSeconds); !ok {
		return dst, false
	}
	return append(dst, '}'), true
}

// plainByte reports whether encoding/json writes c inside a string as
// itself: printable ASCII other than the quote, the backslash and the three
// characters its HTML escaping rewrites. Anything else — including every
// byte of a multi-byte rune, which json would validate — is left to json.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

func appendPlainString(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// appendInts appends "[a<sep>b<sep>c]": JSON with a comma, and with a space
// the form fmt's %v gives a []int, which workload signatures are hashed in.
func appendInts(dst []byte, v []int, sep byte) []byte {
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, sep)
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

func appendUints(dst []byte, v []uint64) []byte {
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, x, 10)
	}
	return append(dst, ']')
}

// appendJSONFloat formats f the way encoding/json formats a float64: the
// shortest decimal that round-trips, exponent form below 1e-6 and from 1e21
// with a two-digit exponent's leading zero dropped. json refuses NaN and the
// infinities, so they decline here.
func appendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// wireCursor reads the canonical form front to back. Every method reports
// false at the first byte that is not what the encoders above would have
// written there; nothing is ever skipped.
type wireCursor struct {
	b []byte
	i int
	// A step log and a permutation are collected here and then copied out at
	// their exact length: one allocation each, however long they are.
	stepScratch []schedule.Step
	intScratch  []int
}

// lit consumes s if the input continues with exactly s.
func (c *wireCursor) lit(s string) bool {
	if len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// peek reports whether the next byte is ch, without consuming it.
func (c *wireCursor) peek(ch byte) bool { return c.i < len(c.b) && c.b[c.i] == ch }

// str consumes a quoted string of plain bytes and returns the bytes between
// the quotes, still part of the input buffer: the caller copies or interns.
func (c *wireCursor) str() ([]byte, bool) {
	if !c.peek('"') {
		return nil, false
	}
	start := c.i + 1
	for j := start; j < len(c.b); j++ {
		if ch := c.b[j]; ch == '"' {
			c.i = j + 1
			return c.b[start:j], true
		} else if !plainByte(ch) {
			return nil, false
		}
	}
	return nil, false
}

// uint consumes a decimal without sign, leading zeros, fraction or exponent
// that fits 64 bits.
func (c *wireCursor) uint() (uint64, bool) {
	start := c.i
	var v uint64
	for c.i < len(c.b) {
		d := c.b[c.i] - '0'
		if d > 9 {
			break
		}
		if v > (math.MaxUint64-uint64(d))/10 {
			return 0, false
		}
		v = v*10 + uint64(d)
		c.i++
	}
	n := c.i - start
	if n == 0 || (n > 1 && c.b[start] == '0') || c.numberContinues() {
		return 0, false
	}
	return v, true
}

// int consumes a decimal that fits an int; "-0" is not a form json writes.
func (c *wireCursor) int() (int, bool) {
	neg := c.peek('-')
	if neg {
		c.i++
	}
	u, ok := c.uint()
	switch {
	case !ok, neg && u == 0:
		return 0, false
	case neg && u <= -math.MinInt:
		return int(-u), true
	case !neg && u <= math.MaxInt:
		return int(u), true
	}
	return 0, false
}

// numberContinues reports whether the digits just read are followed by a
// fraction or an exponent, which an integer field never carries.
func (c *wireCursor) numberContinues() bool {
	return c.i < len(c.b) && (c.b[c.i] == '.' || c.b[c.i] == 'e' || c.b[c.i] == 'E')
}

// float consumes one JSON number and parses it the way encoding/json does
// for a float64 field.
func (c *wireCursor) float() (float64, bool) {
	start := c.i
	digits := func() bool {
		from := c.i
		for c.i < len(c.b) && c.b[c.i]-'0' <= 9 {
			c.i++
		}
		return c.i > from
	}
	if c.peek('-') {
		c.i++
	}
	intStart := c.i
	if !digits() || (c.i-intStart > 1 && c.b[intStart] == '0') {
		return 0, false
	}
	if c.peek('.') {
		c.i++
		if !digits() {
			return 0, false
		}
	}
	if c.peek('e') || c.peek('E') {
		c.i++
		if c.peek('+') || c.peek('-') {
			c.i++
		}
		if !digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(c.b[start:c.i]), 64)
	return f, err == nil
}

// ints consumes "[a,b,...]" into a fresh slice; "[]" is empty, not nil.
func (c *wireCursor) ints() ([]int, bool) {
	if !c.lit("[") {
		return nil, false
	}
	if c.lit("]") {
		return []int{}, true
	}
	out := c.intScratch[:0]
	for {
		v, ok := c.int()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if c.lit("]") {
			c.intScratch = out
			return append(make([]int, 0, len(out)), out...), true
		}
		if !c.lit(",") {
			return nil, false
		}
	}
}

// uints consumes "[a,b,...]" of exactly len(into) elements.
func (c *wireCursor) uints(into []uint64) bool {
	if !c.lit("[") {
		return false
	}
	for i := range into {
		if i > 0 && !c.lit(",") {
			return false
		}
		v, ok := c.uint()
		if !ok {
			return false
		}
		into[i] = v
	}
	return c.lit("]")
}

// end consumes trailing whitespace and reports whether the input is spent.
func (c *wireCursor) end() bool {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\r', '\n':
			c.i++
		default:
			return false
		}
	}
	return true
}

// intern returns the string form of b without allocating when b is one of
// the names every exchange repeats; any other value is copied, so a decoded
// string never refers to the (pooled) input buffer.
func intern(b []byte) string {
	switch string(b) {
	case "split":
		return "split"
	case "reorder":
		return "reorder"
	case "annotate":
		return "annotate"
	case "x86":
		return "x86"
	case "arm":
		return "arm"
	case "riscv":
		return "riscv"
	case "L1D":
		return "L1D"
	case "L1I":
		return "L1I"
	case "L2":
		return "L2"
	case "L3":
		return "L3"
	case "conv_group":
		return "conv_group"
	case "matmul":
		return "matmul"
	}
	return string(b)
}

// decodeSimulateRequest fills *into from data if data is the canonical form
// of a request, and otherwise reports false with *into untouched. into is
// overwritten, not merged into: callers decode into a zero value, as they do
// with encoding/json.
func decodeSimulateRequest(data []byte, into *SimulateRequest) bool {
	c := wireCursor{b: data}
	var req SimulateRequest
	if !c.lit(`{"arch":`) {
		return false
	}
	s, ok := c.str()
	if !ok || !c.lit(`,"workload":{"kind":`) {
		return false
	}
	req.Arch = intern(s)
	if s, ok = c.str(); !ok {
		return false
	}
	req.Workload.Kind = intern(s)
	if c.lit(`,"scale":`) {
		if s, ok = c.str(); !ok || len(s) == 0 {
			return false
		}
		req.Workload.Scale = string(s)
	}
	if c.lit(`,"group":`) {
		if req.Workload.Group, ok = c.int(); !ok || req.Workload.Group == 0 {
			return false
		}
	}
	if c.lit(`,"dims":`) {
		if req.Workload.Dims, ok = c.ints(); !ok || len(req.Workload.Dims) == 0 {
			return false
		}
	}
	if !c.lit(`},"candidates":`) {
		return false
	}
	switch {
	case c.lit("null"):
	case c.lit("[]"):
		req.Candidates = []Candidate{}
	case c.lit("["):
		for {
			if !c.lit(`{"steps":`) {
				return false
			}
			steps, ok := c.steps()
			if !ok || !c.lit("}") {
				return false
			}
			req.Candidates = append(req.Candidates, Candidate{Steps: steps})
			if c.lit("]") {
				break
			}
			if !c.lit(",") {
				return false
			}
		}
	default:
		return false
	}
	if !c.lit("}") || !c.end() {
		return false
	}
	*into = req
	return true
}

func (c *wireCursor) steps() ([]schedule.Step, bool) {
	switch {
	case c.lit("null"):
		return nil, true
	case c.lit("[]"):
		return []schedule.Step{}, true
	case !c.lit("["):
		return nil, false
	}
	steps := c.stepScratch[:0]
	for {
		var st schedule.Step
		if !c.lit(`{"Kind":`) {
			return nil, false
		}
		s, ok := c.str()
		if !ok || !c.lit(`,"Leaf":`) {
			return nil, false
		}
		st.Kind = intern(s)
		if st.Leaf, ok = c.int(); !ok || !c.lit(`,"Factor":`) {
			return nil, false
		}
		if st.Factor, ok = c.int(); !ok || !c.lit(`,"Perm":`) {
			return nil, false
		}
		if !c.lit("null") {
			if st.Perm, ok = c.ints(); !ok {
				return nil, false
			}
		}
		if !c.lit(`,"Ann":`) {
			return nil, false
		}
		ann, ok := c.int()
		if !ok || !c.lit("}") {
			return nil, false
		}
		st.Ann = schedule.Annotation(ann)
		steps = append(steps, st)
		if c.lit("]") {
			c.stepScratch = steps
			return append(make([]schedule.Step, 0, len(steps)), steps...), true
		}
		if !c.lit(",") {
			return nil, false
		}
	}
}

// decodeSimulateResponse is decodeSimulateRequest for the response body.
func decodeSimulateResponse(data []byte, into *SimulateResponse) bool {
	c := wireCursor{b: data}
	var results []Result
	if !c.lit(`{"results":`) {
		return false
	}
	switch {
	case c.lit("null"):
	case c.lit("[]"):
		results = []Result{}
	case c.lit("["):
		for {
			r, ok := c.result()
			if !ok {
				return false
			}
			results = append(results, r)
			if c.lit("]") {
				break
			}
			if !c.lit(",") {
				return false
			}
		}
	default:
		return false
	}
	if !c.lit("}") || !c.end() {
		return false
	}
	into.Results = results
	return true
}

func (c *wireCursor) result() (r Result, ok bool) {
	if !c.lit("{") {
		return r, false
	}
	// The first field present carries no comma; each literal is matched
	// whole, so a comma is never consumed ahead of a name that then differs.
	hit, errName := `"cache_hit":true`, `"err":`
	if c.lit(`"stats":`) {
		if r.Stats, ok = c.stats(); !ok {
			return r, false
		}
		hit, errName = `,"cache_hit":true`, `,"err":`
	}
	if c.lit(hit) {
		r.CacheHit = true
		errName = `,"err":`
	}
	if c.lit(errName) {
		s, ok := c.str()
		if !ok || len(s) == 0 {
			return r, false
		}
		r.Err = string(s)
	}
	return r, c.lit("}")
}

// statsRecord is a Stats and the array its Caches slice points into, so a
// decoded result costs one allocation, not two.
type statsRecord struct {
	stats  sim.Stats
	levels [4]sim.LevelStats
}

func (c *wireCursor) stats() (*sim.Stats, bool) {
	rec := new(statsRecord)
	st := &rec.stats
	if !c.lit(`{"Arch":`) {
		return nil, false
	}
	s, ok := c.str()
	if !ok || !c.lit(`,"Instr":`) {
		return nil, false
	}
	st.Arch = isa.Arch(intern(s))
	if !c.uints(st.Instr[:]) {
		return nil, false
	}
	for _, f := range [...]struct {
		name string
		into *uint64
	}{
		{`,"Total":`, &st.Total}, {`,"Loads":`, &st.Loads}, {`,"Stores":`, &st.Stores},
		{`,"Branches":`, &st.Branches}, {`,"LoopExits":`, &st.LoopExits}, {`,"SinkEvents":`, &st.SinkEvents},
	} {
		if !c.lit(f.name) {
			return nil, false
		}
		if *f.into, ok = c.uint(); !ok {
			return nil, false
		}
	}
	if !c.lit(`,"Caches":`) {
		return nil, false
	}
	switch {
	case c.lit("null"):
	case c.lit("[]"):
		st.Caches = []sim.LevelStats{}
	case c.lit("["):
		st.Caches = rec.levels[:0:len(rec.levels)]
		for {
			var lv sim.LevelStats
			if !c.lit(`{"Name":`) {
				return nil, false
			}
			if s, ok = c.str(); !ok || !c.lit(`,"Stats":{"Hits":`) {
				return nil, false
			}
			lv.Name = intern(s)
			if !c.uints(lv.Stats.Hits[:]) || !c.lit(`,"Misses":`) ||
				!c.uints(lv.Stats.Misses[:]) || !c.lit(`,"Repl":`) ||
				!c.uints(lv.Stats.Repl[:]) || !c.lit(`,"Writebacks":`) {
				return nil, false
			}
			if lv.Stats.Writebacks, ok = c.uint(); !ok || !c.lit("}}") {
				return nil, false
			}
			st.Caches = append(st.Caches, lv)
			if c.lit("]") {
				break
			}
			if !c.lit(",") {
				return nil, false
			}
		}
	default:
		return nil, false
	}
	if !c.lit(`,"SimWallSeconds":`) {
		return nil, false
	}
	if st.SimWallSeconds, ok = c.float(); !ok || !c.lit("}") {
		return nil, false
	}
	return st, true
}

// decodeWire decodes one buffered body into v, a zero value: by the cursor
// decoder when v is a simulate body and data its canonical form, and
// otherwise — any other type, any other form — by encoding/json's streaming
// decoder over the same bytes, exactly as if it had read them off the socket.
func decodeWire(data []byte, v any) error {
	switch v := v.(type) {
	case *SimulateRequest:
		if decodeSimulateRequest(data, v) {
			return nil
		}
	case *SimulateResponse:
		if decodeSimulateResponse(data, v) {
			return nil
		}
	}
	return json.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// wireBufs recycles the buffers a simulate body is read into and encoded
// into. Nothing decoded refers to them (see intern), so a buffer goes back as
// soon as its bytes have been decoded or written out.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf is the largest buffer kept for reuse; a rare huge body must
// not pin its buffer in the pool for the life of the process.
const maxPooledBuf = 1 << 20

func putWireBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		wireBufs.Put(bp)
	}
}

// readBody appends r, read to its end, to buf. declared is the peer's
// Content-Length (or -1): a hint that saves regrowing, and — being a header,
// which is untrusted input — never a reason to reserve more than maxPooledBuf
// ahead of bytes that have actually arrived.
func readBody(buf []byte, r io.Reader, declared int64) ([]byte, error) {
	if want := declared + 1; want > int64(cap(buf)) { // +1: room to see EOF without growing
		if want > maxPooledBuf {
			want = maxPooledBuf
		}
		if want > int64(cap(buf)) {
			buf = append(make([]byte, 0, want), buf...)
		}
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if errors.Is(err, io.EOF) {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
