package dls

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the request decoder of the wire format: one pass over the
// bytes of a WireRequest or of a {"requests":[…]} envelope, without
// reflection. It accepts exactly the bodies that encoding/json accepts
// when it unmarshals into the same Go types, and leaves the same values
// behind:
//
//   - a body is one JSON value, with nothing but whitespace after it;
//   - keys match field names without regard to case, folded the way
//     encoding/json folds them (ſ matches s, the Kelvin sign matches k),
//     and a key that names no field is skipped after a full syntax check;
//   - a repeated key decodes into the value already there: a second
//     "platform" object merges its fields into the first, and a second
//     array decodes into the elements the slice already holds;
//   - null leaves strings, numbers and structs as they are, and sets
//     pointers and slices to nil;
//   - invalid UTF-8 and lone surrogates in strings become U+FFFD;
//   - a number must fit its field: 1e400 overflows a float64, and 1.0 or
//     1e0 is no int;
//   - nesting deeper than 10000 containers is an error, also inside a
//     skipped value, which is skipped without recursion.
//
// encoding/json into these types stays the reference: FuzzDecodeAgreement
// and FuzzRequestJSON compare the two on arbitrary bytes.

// maxDepth is encoding/json's limit on nested arrays and objects.
const maxDepth = 10000

// decoder is the state of one decode. Its scratch slices outlive it in
// decoders, so a fresh slice is collected there and allocated once, at
// its final length.
type decoder struct {
	data  []byte
	pos   int
	depth int    // arrays and objects open around the current value
	stack []byte // containers open inside the value skip is skipping
	buf   []byte // a string's value when it differs from its raw bytes

	ints    []int
	floats  []float64
	workers []Worker
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// DecodeWireRequest decodes a request body: exactly one JSON value of the
// shape WireRequest, decoded as encoding/json would decode it into a
// WireRequest.
func DecodeWireRequest(data []byte) (WireRequest, error) {
	var w WireRequest
	err := decode(data, func(d *decoder) error { return d.request(&w) })
	return w, err
}

// DecodeWireBatch decodes a batch body: exactly one JSON value of the
// shape {"requests":[WireRequest, …]}. Keys other than "requests" are
// skipped, and a body without that key decodes to no requests.
func DecodeWireBatch(data []byte) ([]WireRequest, error) {
	var reqs []WireRequest
	err := decode(data, func(d *decoder) error {
		return d.object(func(key []byte) error {
			if string(key) == "requests" {
				return decodeSlice(d, &reqs, nil, d.request)
			}
			return d.skip()
		})
	})
	return reqs, err
}

// decode runs value over data and checks that only whitespace follows.
func decode(data []byte, value func(*decoder) error) error {
	d := decoders.Get().(*decoder)
	d.data, d.pos, d.depth = data, 0, 0
	err := value(d)
	if d.peek(); err == nil && d.pos < len(d.data) {
		err = d.syntaxError()
	}
	d.data = nil
	decoders.Put(d)
	return err
}

// request decodes a WireRequest object.
func (d *decoder) request(w *WireRequest) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "platform":
			return d.platform(&w.Platform)
		case "strategy":
			return d.str(&w.Strategy)
		case "model":
			return d.str(&w.Model)
		case "arith":
			return d.str(&w.Arith)
		case "eval":
			return d.str(&w.Eval)
		case "send":
			return decodeSlice(d, &w.Send, &d.ints, d.int)
		case "return":
			return decodeSlice(d, &w.Return, &d.ints, d.int)
		case "affine":
			return d.affine(&w.Affine)
		case "load":
			return d.float(&w.Load)
		}
		return d.skip()
	})
}

// platform decodes a WirePlatform object into *p, into the one already
// there if *p is set.
func (d *decoder) platform(p **WirePlatform) error {
	if d.peek() == 'n' && d.null() {
		*p = nil
		return nil
	}
	if *p == nil {
		*p = new(WirePlatform)
	}
	plat := *p
	return d.object(func(key []byte) error {
		if string(key) == "workers" {
			return decodeSlice(d, &plat.Workers, &d.workers, d.worker)
		}
		return d.skip()
	})
}

// worker decodes a Worker object.
func (d *decoder) worker(w *Worker) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "name":
			return d.str(&w.Name)
		case "c":
			return d.float(&w.C)
		case "w":
			return d.float(&w.W)
		case "d":
			return d.float(&w.D)
		}
		return d.skip()
	})
}

// affine decodes a WireAffine object into *a, into the one already there
// if *a is set.
func (d *decoder) affine(a **WireAffine) error {
	if d.peek() == 'n' && d.null() {
		*a = nil
		return nil
	}
	if *a == nil {
		*a = new(WireAffine)
	}
	aff := *a
	return d.object(func(key []byte) error {
		switch string(key) {
		case "in":
			return decodeSlice(d, &aff.In, &d.floats, d.float)
		case "out":
			return decodeSlice(d, &aff.Out, &d.floats, d.float)
		case "comp":
			return decodeSlice(d, &aff.Comp, &d.floats, d.float)
		}
		return d.skip()
	})
}

// object decodes an object into a struct: field gets each key, folded
// (see key), and decodes or skips its value. null leaves the struct as it
// is.
func (d *decoder) object(field func(key []byte) error) error {
	switch d.peek() {
	case '{':
	case 'n':
		if d.null() {
			return nil
		}
		fallthrough
	default:
		return d.mismatch("object")
	}
	if err := d.open(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.close()
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.close()
			return nil
		default:
			return d.syntaxError()
		}
	}
}

// decodeSlice decodes an array into *s the way encoding/json decodes into
// a slice. null sets nil, and [] a new empty slice. Element i decodes into
// the element already at i while the slice's capacity reaches, so a
// repeated key merges into the earlier value, and the slice ends at the
// array's length. A slice without capacity collects its elements in
// scratch, when one is given, and is allocated once at its final length;
// elem must not use the same scratch.
func decodeSlice[T any](d *decoder, s *[]T, scratch *[]T, elem func(*T) error) error {
	switch d.peek() {
	case '[':
	case 'n':
		if d.null() {
			*s = nil
			return nil
		}
		fallthrough
	default:
		return d.mismatch("array")
	}
	if err := d.open(); err != nil {
		return err
	}
	v, fresh := *s, scratch != nil && cap(*s) == 0
	if fresh {
		v = (*scratch)[:0]
	}
	n := 0
	if d.peek() != ']' {
		for {
			if n == len(v) {
				if fresh || n == cap(v) {
					var zero T
					v = append(v, zero)
				} else {
					v = v[:n+1] // the old element comes back, as with reflect.Value.SetLen
				}
			}
			if err := elem(&v[n]); err != nil {
				return err
			}
			n++
			if c := d.peek(); c != ',' {
				if c != ']' {
					return d.syntaxError()
				}
				break
			}
			d.pos++
		}
	}
	d.close()
	switch {
	case n == 0:
		*s = []T{}
	case fresh:
		*scratch = v
		*s = make([]T, n)
		copy(*s, v)
	default:
		*s = v[:n]
	}
	return nil
}

// str decodes a string.
func (d *decoder) str(dst *string) error {
	switch d.peek() {
	case '"':
		raw, plain, err := d.scanString()
		if err != nil {
			return err
		}
		if !plain {
			raw = d.unquote(raw)
		}
		if s, ok := wireNames[string(raw)]; ok {
			*dst = s
		} else {
			*dst = string(raw)
		}
		return nil
	case 'n':
		if d.null() {
			return nil
		}
	}
	return d.mismatch("string")
}

// wireNames holds the strings most requests carry: the built-in strategy
// names, the enum names and the default worker names. str returns these
// instead of allocating a copy.
var wireNames = func() map[string]string {
	names := []string{
		StrategyFIFO, StrategyLIFO, StrategyIncC, StrategyIncW, StrategyDecC,
		StrategyFIFOOrder, StrategyLIFOOrder, StrategyScenario, StrategyBusFIFO,
		StrategyFIFOExhaustive, StrategyLIFOExhaustive, StrategyPairExhaustive,
		StrategyFIFOAffine, StrategyScenarioAffine,
		ModelName(OnePort), ModelName(TwoPort), ArithName(Float64), ArithName(Exact),
	}
	for _, m := range []EvalMode{EvalAuto, EvalSimplex, EvalExact} {
		names = append(names, m.String())
	}
	for i := 1; i <= 64; i++ {
		names = append(names, "P"+strconv.Itoa(i))
	}
	m := make(map[string]string, len(names))
	for _, n := range names {
		m[n] = n
	}
	return m
}()

// float decodes a number into a float64.
func (d *decoder) float(dst *float64) error {
	lit, err := d.numberValue()
	if err != nil || lit == nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return fmt.Errorf("number %s overflows a float64 at offset %d", lit, d.pos-len(lit))
	}
	*dst = f
	return nil
}

// int decodes a number into an int: an integer literal in range.
func (d *decoder) int(dst *int) error {
	lit, err := d.numberValue()
	if err != nil || lit == nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("number %s is not an int at offset %d", lit, d.pos-len(lit))
	}
	*dst = int(n)
	return nil
}

// numberValue reads the value of a numeric field: the bytes of a number
// literal, or none after a null, which leaves the field as it is.
func (d *decoder) numberValue() ([]byte, error) {
	switch c := d.peek(); {
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	case c == 'n' && d.null():
		return nil, nil
	}
	return nil, d.mismatch("number")
}

// key reads an object key and the colon after it. It returns the key
// folded the way encoding/json matches it against field names: each rune
// becomes the smallest rune of its unicode.SimpleFold orbit, written in
// lower case, since every field name is lower-case ASCII. A key that
// folds to anything outside ASCII matches no field and comes back empty.
// The result is valid until the next string is read.
func (d *decoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.syntaxError()
	}
	key, plain, err := d.scanString()
	if err != nil {
		return nil, err
	}
	if !plain {
		key = d.unquote(key)
	}
	for _, c := range key {
		if c < 'a' || c > 'z' {
			key = d.fold(key)
			break
		}
	}
	if d.peek() != ':' {
		return nil, d.syntaxError()
	}
	d.pos++
	return key, nil
}

// fold folds key for key, into d.buf. key may itself lie in d.buf: no
// rune folds to more bytes than it had.
func (d *decoder) fold(key []byte) []byte {
	out := d.buf[:0]
	for i := 0; i < len(key); {
		r, size := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(key[i:])
			for f := unicode.SimpleFold(r); f < r; f = unicode.SimpleFold(f) {
				r = f
			}
			if r >= utf8.RuneSelf {
				return out[:0]
			}
		}
		i += size
		if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		}
		out = append(out, byte(r))
	}
	d.buf = out
	return out
}

// scanString checks the string at d.pos the way encoding/json's scanner
// does and moves past it. It returns the bytes between the quotes; plain
// reports that they are the string's value as they stand, with no escape
// and no invalid UTF-8.
func (d *decoder) scanString() (raw []byte, plain bool, err error) {
	data := d.data
	start := d.pos + 1
	plain = true
	for i := start; i < len(data); {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return data[start:i], plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(data) {
				i = len(data)
				break
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j >= len(data) || !isHex(data[j]) {
						d.pos = j
						return nil, false, d.syntaxError()
					}
				}
				i += 6
			default:
				d.pos = i + 1
				return nil, false, d.syntaxError()
			}
		case c < ' ':
			d.pos = i
			return nil, false, d.syntaxError()
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				plain = false
			}
			i += size
		}
	}
	d.pos = len(data)
	return nil, false, d.syntaxError()
}

// unquote returns the value of a string that scanString did not find
// plain: escapes decoded, and each invalid UTF-8 byte and lone surrogate
// replaced by U+FFFD, as encoding/json does. The value lives in d.buf.
func (d *decoder) unquote(raw []byte) []byte {
	b := d.buf[:0]
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\\':
			switch e := raw[i+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(raw[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						if pair := utf16.DecodeRune(r, hex4(raw[i+2:])); pair != unicode.ReplacementChar {
							r = pair
							i += 6
						}
					}
					if utf16.IsSurrogate(r) {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default: // '"', '\\' or '/'
				b = append(b, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.buf = b
	return b
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// hex4 reads the four hex digits that scanString checked.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number checks the number literal at d.pos against JSON's grammar,
// moves past it and returns its bytes.
func (d *decoder) number() ([]byte, error) {
	data, start := d.data, d.pos
	i := start
	digits := func() bool {
		n := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i > n
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case !digits():
		d.pos = i
		return nil, d.syntaxError()
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			d.pos = i
			return nil, d.syntaxError()
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			d.pos = i
			return nil, d.syntaxError()
		}
	}
	d.pos = i
	return data[start:i], nil
}

// skip checks and skips one value of any shape, for a key that names no
// field. It keeps the open containers on d.stack instead of recursing, so
// the nesting limit, not the goroutine stack, bounds a deep value.
func (d *decoder) skip() error {
	stack := d.stack[:0]
	defer func() { d.stack = stack }()
	for {
		switch c := d.peek(); c {
		case '{', '[':
			if d.depth+len(stack) >= maxDepth {
				return errDepth
			}
			d.pos++
			if d.peek() == c+2 { // '{'+2 is '}', '['+2 is ']'
				d.pos++
				break
			}
			stack = append(stack, c)
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, _, err := d.scanString(); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			if _, err := d.number(); err != nil {
				return err
			}
		}
		// A value is complete: close the containers it completes, then
		// move on to the next element, if any.
		for {
			if len(stack) == 0 {
				return nil
			}
			top, c := stack[len(stack)-1], d.peek()
			if c == top+2 {
				d.pos++
				stack = stack[:len(stack)-1]
				continue
			}
			if c != ',' {
				return d.syntaxError()
			}
			d.pos++
			if top == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			break
		}
	}
}

var errDepth = errors.New("exceeded max depth")

// literal moves past lit, which must come next.
func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.pos >= len(d.data) || d.data[d.pos] != lit[i] {
			return d.syntaxError()
		}
		d.pos++
	}
	return nil
}

// null moves past a null literal if one comes next.
func (d *decoder) null() bool {
	if len(d.data)-d.pos >= 4 && string(d.data[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// peek skips whitespace and returns the next byte, or 0 at the end of
// the input.
func (d *decoder) peek() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// open moves past the '{' or '[' at d.pos.
func (d *decoder) open() error {
	if d.depth >= maxDepth {
		return errDepth
	}
	d.pos++
	d.depth++
	return nil
}

// close moves past the '}' or ']' at d.pos.
func (d *decoder) close() {
	d.pos++
	d.depth--
}

// mismatch reports the value at d.pos, which cannot decode into a want.
func (d *decoder) mismatch(want string) error {
	var got string
	switch c := d.peek(); {
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == '"':
		got = "string"
	case c == 't' || c == 'f':
		got = "bool"
	case c == '-' || '0' <= c && c <= '9':
		got = "number"
	default:
		return d.syntaxError()
	}
	return fmt.Errorf("cannot decode %s into %s at offset %d", got, want, d.pos)
}

// syntaxError reports the byte at d.pos, or the end of the input.
func (d *decoder) syntaxError() error {
	if d.pos >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d", d.data[d.pos], d.pos)
}
