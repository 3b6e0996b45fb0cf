package otel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"unicode/utf8"

	"github.com/sleuth-rca/sleuth/internal/trace"
)

// This file is the OTLP/JSON receiver codec: a single-pass byte scanner
// built for the resourceSpans → scopeSpans → spans shape. It accepts and
// rejects exactly the documents json.Unmarshal into otlpDoc does, and
// yields the same spans, so it follows encoding/json's rules rather than
// the OTLP spec's where the two differ:
//
//   - the whole input must be one JSON value, at most maxNestingDepth
//     containers deep, with only whitespace around it; unknown keys are
//     skipped, but their values are still validated;
//   - object keys match struct fields exactly first, then under
//     bytes.EqualFold;
//   - a value of the wrong JSON type (a number for traceId, "2" for kind,
//     2.0 or 1e2 for an int) fails the document; null leaves a scalar or
//     object field as it was and resets an array field to nil;
//   - a repeated object key merges into the earlier object; a repeated
//     array key decodes element i into the earlier element i, and keeps
//     earlier elements past its own length as backing store that a later
//     repeat can merge into again (reflect's slice reuse).
//
// Strings without escapes and with valid UTF-8 are copied straight from
// the body; anything else is unquoted by handing only that token to
// json.Unmarshal, so escape and invalid-UTF-8 handling stay identical.

// maxNestingDepth is encoding/json's container-nesting limit.
const maxNestingDepth = 10000

// listRef is one decoded JSON array: elements arena[off:off+n] are
// visible, arena[off:off+max] are retained for a repeated key to merge
// into.
type listRef struct{ off, n, max int }

type rsElem struct {
	resAttrs listRef // resource.attributes, in kvs
	scopes   listRef // scopeSpans, in sss
}

type ssElem struct {
	spans listRef // in sps
}

type kvElem struct{ key, value string }

type spanElem struct {
	traceID, spanID, parentID, name string
	kind, code                      int
	// start and end hold the raw timestamp text; they may alias the
	// request body and never outlive the call.
	start, end []byte
	attrs      listRef // in kvs
}

// Struct field names per object, in the order of the switch cases that
// consume them. They are the otlp* types' json tags.
var (
	docFields    = []string{"resourceSpans"}
	rsFields     = []string{"resource", "scopeSpans"}
	resFields    = []string{"attributes"}
	ssFields     = []string{"spans"}
	kvFields     = []string{"key", "value"}
	valueFields  = []string{"stringValue"}
	statusFields = []string{"code"}
	spanFields   = []string{"traceId", "spanId", "parentSpanId", "name", "kind",
		"startTimeUnixNano", "endTimeUnixNano", "status", "attributes"}
)

// otlpDecoder holds one call's scan state. Decoders are pooled for their
// arenas and intern map; release empties both, so nothing decoded in one
// call is visible to the next.
type otlpDecoder struct {
	data  []byte
	pos   int
	depth int
	err   error

	// strs interns the strings that repeat within one payload: trace and
	// span IDs, names, attribute keys and values.
	strs map[string]string

	doc   listRef // resourceSpans, in rss
	rss   []rsElem
	sss   []ssElem
	sps   []spanElem
	kvs   []kvElem
	stack []byte // containers open inside a skipped value
}

var decoderPool = sync.Pool{New: func() any {
	return &otlpDecoder{strs: map[string]string{}}
}}

// maxPooledElems bounds the arena elements and interned strings a pooled
// decoder may keep, so one outsized payload does not pin its memory in
// the pool; a 512-span export uses about 3k.
const maxPooledElems = 1 << 16

func (d *otlpDecoder) release() {
	if len(d.strs)+cap(d.rss)+cap(d.sss)+cap(d.sps)+cap(d.kvs) > maxPooledElems {
		return
	}
	clear(d.strs)
	clear(d.rss)
	clear(d.sss)
	clear(d.sps)
	clear(d.kvs)
	d.rss, d.sss, d.sps, d.kvs, d.stack = d.rss[:0], d.sss[:0], d.sps[:0], d.kvs[:0], d.stack[:0]
	d.data, d.err, d.doc = nil, nil, listRef{}
	decoderPool.Put(d)
}

// --- errors ---------------------------------------------------------------

func (d *otlpDecoder) syntaxErr(what string) bool {
	if d.pos >= len(d.data) {
		d.err = fmt.Errorf("unexpected end of JSON input")
	} else {
		d.err = fmt.Errorf("invalid character %q %s at offset %d", d.data[d.pos], what, d.pos)
	}
	return false
}

// mismatch fails on a value that is not of the wanted JSON type: a type
// error when the value could start valid JSON, a syntax error otherwise.
func (d *otlpDecoder) mismatch(want string) bool {
	if d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == '{', c == '[', c == '"', c == 't', c == 'f', c == '-', '0' <= c && c <= '9':
			d.err = fmt.Errorf("cannot decode value at offset %d into %s", d.pos, want)
			return false
		}
	}
	return d.syntaxErr("looking for beginning of value")
}

// --- JSON grammar ---------------------------------------------------------

func (d *otlpDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *otlpDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// open consumes the container opener c and enforces the nesting limit.
func (d *otlpDecoder) open(c byte) bool {
	if d.peek() != c {
		return d.syntaxErr("looking for beginning of value")
	}
	d.pos++
	if d.depth++; d.depth > maxNestingDepth {
		d.err = fmt.Errorf("exceeded max depth at offset %d", d.pos)
		return false
	}
	return true
}

// strTok is a scanned string token: its content is data[lo:hi].
type strTok struct {
	lo, hi int
	esc    bool // contains a backslash escape
	ascii  bool // every byte < 0x80
}

// plain reports whether the token's content is its own unquoted value.
func (d *otlpDecoder) plain(t strTok) bool {
	return !t.esc && (t.ascii || utf8.Valid(d.data[t.lo:t.hi]))
}

// str scans a string token, validating escapes and control characters.
func (d *otlpDecoder) str() (strTok, bool) {
	data := d.data
	t := strTok{lo: d.pos + 1, ascii: true}
	for i := t.lo; i < len(data); {
		c := data[i]
		if plainASCII[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			t.hi, d.pos = i, i+1
			return t, true
		case c == '\\':
			t.esc = true
			if i+1 >= len(data) {
				d.pos = len(data)
				return t, d.syntaxErr("")
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				i += 2
				for j := 0; j < 4; j++ {
					if i >= len(data) || !isHex(data[i]) {
						d.pos = i
						return t, d.syntaxErr("in \\u hexadecimal character escape")
					}
					i++
				}
			default:
				d.pos = i + 1
				return t, d.syntaxErr("in string escape code")
			}
		case c < 0x20:
			d.pos = i
			return t, d.syntaxErr("in string literal")
		default:
			if c >= utf8.RuneSelf {
				t.ascii = false
			}
			i++
		}
	}
	d.pos = len(data)
	return t, d.syntaxErr("")
}

// plainASCII marks the bytes a string token copies through unchanged.
var plainASCII = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// value returns a string token's unquoted bytes: a plain token's own
// bytes in the body, anything else exactly as encoding/json decodes it.
func (d *otlpDecoder) value(t strTok) []byte {
	if d.plain(t) {
		return d.data[t.lo:t.hi]
	}
	return []byte(d.unquote(t))
}

// unquote decodes a string token that holds an escape or invalid UTF-8
// exactly as encoding/json does, by handing it only that token.
func (d *otlpDecoder) unquote(t strTok) string {
	var s string
	_ = json.Unmarshal(d.data[t.lo-1:t.hi+1], &s) // the token is already validated
	return s
}

// text returns a string token's value through the intern map, so each
// distinct string of the payload is allocated once.
func (d *otlpDecoder) text(t strTok) string {
	if !d.plain(t) {
		s := d.unquote(t)
		if v, ok := d.strs[s]; ok {
			return v
		}
		d.strs[s] = s
		return s
	}
	b := d.data[t.lo:t.hi]
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// number scans a number token and reports whether it has integer form
// (no fraction, no exponent).
func (d *otlpDecoder) number() (lo, hi int, isInt, ok bool) {
	data, i := d.data, d.pos
	lo = i
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	default:
		d.pos = i
		return lo, i, false, d.syntaxErr("in numeric literal")
	}
	isInt = true
	if i < len(data) && data[i] == '.' {
		isInt = false
		i++
		if i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			return lo, i, false, d.syntaxErr("after decimal point in numeric literal")
		}
		for ; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		isInt = false
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			return lo, i, false, d.syntaxErr("in exponent of numeric literal")
		}
		for ; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	d.pos = i
	return lo, i, isInt, true
}

// literal consumes true, false or null.
func (d *otlpDecoder) literal() bool {
	var want string
	switch d.peek() {
	case 't':
		want = "true"
	case 'f':
		want = "false"
	case 'n':
		want = "null"
	default:
		return d.syntaxErr("looking for beginning of value")
	}
	for i := 0; i < len(want); i++ {
		if d.pos >= len(d.data) || d.data[d.pos] != want[i] {
			return d.syntaxErr("in literal " + want)
		}
		d.pos++
	}
	return true
}

// member advances to the next key of the object being read and consumes
// its colon; more is false once the closing brace has been consumed.
func (d *otlpDecoder) member(first bool) (k strTok, more, ok bool) {
	d.ws()
	c := d.peek()
	if c == '}' {
		d.pos++
		d.depth--
		return k, false, true
	}
	if !first {
		if c != ',' {
			return k, false, d.syntaxErr("after object key:value pair")
		}
		d.pos++
		d.ws()
		c = d.peek()
	}
	if c != '"' {
		return k, false, d.syntaxErr("looking for beginning of object key string")
	}
	if k, ok = d.str(); !ok {
		return k, false, false
	}
	d.ws()
	if d.peek() != ':' {
		return k, false, d.syntaxErr("after object key")
	}
	d.pos++
	d.ws()
	return k, true, true
}

// element advances to the next element of the array being read; more is
// false once the closing bracket has been consumed.
func (d *otlpDecoder) element(first bool) (more, ok bool) {
	d.ws()
	c := d.peek()
	if c == ']' {
		d.pos++
		d.depth--
		return false, true
	}
	if !first {
		if c != ',' {
			return false, d.syntaxErr("after array element")
		}
		d.pos++
		d.ws()
	}
	return true, true
}

// field resolves key k against an object's field names the way
// encoding/json does: an exact match first, then a case-insensitive one.
// It returns -1 for an unknown key.
func (d *otlpDecoder) field(k strTok, names []string) int {
	b := d.value(k)
	for i, n := range names {
		if string(b) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(b, []byte(n)) {
			return i
		}
	}
	return -1
}

// skip consumes and validates one JSON value of any shape.
func (d *otlpDecoder) skip() bool {
	base := len(d.stack)
	for {
		// A value starts at d.pos.
		var more, ok bool
		switch c := d.peek(); {
		case c == '{':
			if !d.open(c) {
				return false
			}
			if _, more, ok = d.member(true); !ok {
				return false
			}
			if more {
				d.stack = append(d.stack, c)
				continue
			}
		case c == '[':
			if !d.open(c) {
				return false
			}
			if more, ok = d.element(true); !ok {
				return false
			}
			if more {
				d.stack = append(d.stack, c)
				continue
			}
		case c == '"':
			if _, ok = d.str(); !ok {
				return false
			}
		case c == '-' || isDigit(c):
			if _, _, _, ok = d.number(); !ok {
				return false
			}
		default:
			if !d.literal() {
				return false
			}
		}
		// A value ended: close containers until one has another item.
		for len(d.stack) > base {
			if d.stack[len(d.stack)-1] == '{' {
				_, more, ok = d.member(false)
			} else {
				more, ok = d.element(false)
			}
			if !ok {
				return false
			}
			if more {
				break
			}
			d.stack = d.stack[:len(d.stack)-1]
		}
		if !more {
			return true
		}
	}
}

// --- typed values -----------------------------------------------------------

// object opens an object value; a null is consumed and reported absent.
func (d *otlpDecoder) object(want string) (present, ok bool) {
	switch d.peek() {
	case '{':
		return true, d.open('{')
	case 'n':
		return false, d.literal()
	}
	return false, d.mismatch(want)
}

// list decodes an array value into r's elements of arena, one elem call
// per element; a null resets r.
func list[T any](d *otlpDecoder, arena *[]T, r *listRef, want string, elem func(*otlpDecoder, *T) bool) bool {
	switch d.peek() {
	case '[':
	case 'n':
		*r = listRef{}
		return d.literal()
	default:
		return d.mismatch(want)
	}
	if r.max == 0 {
		r.off = len(*arena)
	} else if r.off+r.max != len(*arena) {
		// A repeated key: move the retained elements to the arena's end
		// so this array can extend them in place.
		*arena = append(*arena, (*arena)[r.off:r.off+r.max]...)
		r.off = len(*arena) - r.max
	}
	if !d.open('[') {
		return false
	}
	n := 0
	for {
		more, ok := d.element(n == 0)
		if !more {
			if n == 0 {
				*r = listRef{}
			} else {
				r.n = n
			}
			return ok
		}
		if n == r.max {
			var zero T
			*arena = append(*arena, zero)
			r.max++
		}
		if !elem(d, &(*arena)[r.off+n]) {
			return false
		}
		n++
	}
}

// visible returns the elements of arena that r currently holds.
func visible[T any](arena []T, r listRef) []T { return arena[r.off : r.off+r.n] }

func (d *otlpDecoder) strField(dst *string) bool {
	switch d.peek() {
	case '"':
		t, ok := d.str()
		if ok {
			*dst = d.text(t)
		}
		return ok
	case 'n':
		return d.literal()
	}
	return d.mismatch("string")
}

// rawField stores a string's unquoted bytes without copying a plain one.
func (d *otlpDecoder) rawField(dst *[]byte) bool {
	switch d.peek() {
	case '"':
		t, ok := d.str()
		if ok {
			*dst = d.value(t)
		}
		return ok
	case 'n':
		return d.literal()
	}
	return d.mismatch("string")
}

func (d *otlpDecoder) intField(dst *int) bool {
	switch c := d.peek(); {
	case c == '-' || isDigit(c):
		lo, hi, isInt, ok := d.number()
		if !ok {
			return false
		}
		if isInt {
			if v, err := strconv.ParseInt(string(d.data[lo:hi]), 10, strconv.IntSize); err == nil {
				*dst = int(v)
				return true
			}
		}
		d.err = fmt.Errorf("cannot decode number %s at offset %d into int", d.data[lo:hi], lo)
		return false
	case c == 'n':
		return d.literal()
	}
	return d.mismatch("int")
}

// --- OTLP structure -------------------------------------------------------

// document decodes the whole input into the arenas.
func (d *otlpDecoder) document() bool {
	d.ws()
	if present, ok := d.object("OTLP document"); !ok {
		return false
	} else if present {
		for first := true; ; first = false {
			k, more, ok := d.member(first)
			if !more {
				if !ok {
					return false
				}
				break
			}
			switch d.field(k, docFields) {
			case 0:
				ok = list(d, &d.rss, &d.doc, "resourceSpans array", (*otlpDecoder).resourceSpans)
			default:
				ok = d.skip()
			}
			if !ok {
				return false
			}
		}
	}
	d.ws()
	if d.pos < len(d.data) {
		return d.syntaxErr("after top-level value")
	}
	return true
}

func (d *otlpDecoder) resourceSpans(rs *rsElem) bool {
	if present, ok := d.object("resourceSpans element"); !present {
		return ok
	}
	for first := true; ; first = false {
		k, more, ok := d.member(first)
		if !more {
			return ok
		}
		switch d.field(k, rsFields) {
		case 0:
			ok = d.resource(rs)
		case 1:
			ok = list(d, &d.sss, &rs.scopes, "scopeSpans array", (*otlpDecoder).scopeSpans)
		default:
			ok = d.skip()
		}
		if !ok {
			return false
		}
	}
}

func (d *otlpDecoder) resource(rs *rsElem) bool {
	if present, ok := d.object("resource"); !present {
		return ok
	}
	for first := true; ; first = false {
		k, more, ok := d.member(first)
		if !more {
			return ok
		}
		switch d.field(k, resFields) {
		case 0:
			ok = list(d, &d.kvs, &rs.resAttrs, "attributes array", (*otlpDecoder).keyValue)
		default:
			ok = d.skip()
		}
		if !ok {
			return false
		}
	}
}

func (d *otlpDecoder) scopeSpans(ss *ssElem) bool {
	if present, ok := d.object("scopeSpans element"); !present {
		return ok
	}
	for first := true; ; first = false {
		k, more, ok := d.member(first)
		if !more {
			return ok
		}
		switch d.field(k, ssFields) {
		case 0:
			ok = list(d, &d.sps, &ss.spans, "spans array", (*otlpDecoder).span)
		default:
			ok = d.skip()
		}
		if !ok {
			return false
		}
	}
}

func (d *otlpDecoder) keyValue(kv *kvElem) bool {
	if present, ok := d.object("attribute"); !present {
		return ok
	}
	for first := true; ; first = false {
		k, more, ok := d.member(first)
		if !more {
			return ok
		}
		switch d.field(k, kvFields) {
		case 0:
			ok = d.strField(&kv.key)
		case 1:
			ok = d.anyValue(kv)
		default:
			ok = d.skip()
		}
		if !ok {
			return false
		}
	}
}

func (d *otlpDecoder) anyValue(kv *kvElem) bool {
	if present, ok := d.object("attribute value"); !present {
		return ok
	}
	for first := true; ; first = false {
		k, more, ok := d.member(first)
		if !more {
			return ok
		}
		switch d.field(k, valueFields) {
		case 0:
			ok = d.strField(&kv.value)
		default:
			ok = d.skip()
		}
		if !ok {
			return false
		}
	}
}

func (d *otlpDecoder) span(sp *spanElem) bool {
	if present, ok := d.object("span"); !present {
		return ok
	}
	for first := true; ; first = false {
		k, more, ok := d.member(first)
		if !more {
			return ok
		}
		switch d.field(k, spanFields) {
		case 0:
			ok = d.strField(&sp.traceID)
		case 1:
			ok = d.strField(&sp.spanID)
		case 2:
			ok = d.strField(&sp.parentID)
		case 3:
			ok = d.strField(&sp.name)
		case 4:
			ok = d.intField(&sp.kind)
		case 5:
			ok = d.rawField(&sp.start)
		case 6:
			ok = d.rawField(&sp.end)
		case 7:
			ok = d.status(sp)
		case 8:
			ok = list(d, &d.kvs, &sp.attrs, "attributes array", (*otlpDecoder).keyValue)
		default:
			ok = d.skip()
		}
		if !ok {
			return false
		}
	}
}

func (d *otlpDecoder) status(sp *spanElem) bool {
	if present, ok := d.object("status"); !present {
		return ok
	}
	for first := true; ; first = false {
		k, more, ok := d.member(first)
		if !more {
			return ok
		}
		switch d.field(k, statusFields) {
		case 0:
			ok = d.intField(&sp.code)
		default:
			ok = d.skip()
		}
		if !ok {
			return false
		}
	}
}

// spans converts the decoded document into canonical spans, in document
// order.
func (d *otlpDecoder) spans() ([]*trace.Span, error) {
	n := 0
	for _, rs := range visible(d.rss, d.doc) {
		for _, ss := range visible(d.sss, rs.scopes) {
			n += ss.spans.n
		}
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]*trace.Span, 0, n)
	for _, rs := range visible(d.rss, d.doc) {
		service := ""
		for _, kv := range visible(d.kvs, rs.resAttrs) {
			if kv.key == "service.name" {
				service = kv.value
			}
		}
		for _, ss := range visible(d.sss, rs.scopes) {
			spans := visible(d.sps, ss.spans)
			for i := range spans {
				o := &spans[i]
				startNano, err := strconv.ParseInt(string(o.start), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("otel: bad start time %q: %w", o.start, err)
				}
				endNano, err := strconv.ParseInt(string(o.end), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("otel: bad end time %q: %w", o.end, err)
				}
				sp := &trace.Span{
					TraceID:  o.traceID,
					SpanID:   o.spanID,
					ParentID: o.parentID,
					Service:  service,
					Name:     o.name,
					Kind:     kindFromOTLP(o.kind),
					Start:    startNano / 1000,
					End:      endNano / 1000,
					Error:    o.code == 2,
				}
				for _, kv := range visible(d.kvs, o.attrs) {
					switch kv.key {
					case "k8s.pod.name":
						sp.Pod = kv.value
					case "k8s.node.name":
						sp.Node = kv.value
					default:
						if sp.Attrs == nil {
							sp.Attrs = map[string]string{}
						}
						sp.Attrs[kv.key] = kv.value
					}
				}
				out = append(out, sp)
			}
		}
	}
	return out, nil
}
