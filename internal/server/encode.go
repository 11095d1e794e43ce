package server

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// This file is the server's one response encoder. Each response type
// appends its own JSON, byte for byte what json.NewEncoder(w).Encode
// writes for it: the struct tags' names and omitempty rules, HTML-safe
// string escaping, encoding/json's float formatting and the trailing
// newline. FuzzEncodeAgreement holds it to encoding/json.

// response is a body the server writes. appendJSON appends its JSON and
// a newline to dst; on failure it returns dst unchanged.
type response interface {
	appendJSON(dst []byte) ([]byte, error)
}

// encoder appends JSON to buf. err keeps the first value JSON cannot
// represent, a NaN or an infinity, on which encoding/json fails too.
type encoder struct {
	buf []byte
	err error
}

// end finishes the response started at dst.
func (e *encoder) end(dst []byte) ([]byte, error) {
	if e.err != nil {
		return dst, e.err
	}
	return append(e.buf, '\n'), nil
}

func (r *SolveResponse) appendJSON(dst []byte) ([]byte, error) {
	e := encoder{buf: dst}
	e.solve(r)
	return e.end(dst)
}

func (r *BatchResponse) appendJSON(dst []byte) ([]byte, error) {
	e := encoder{buf: dst}
	e.raw(`{"results":`)
	if r.Results == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i, res := range r.Results {
			if i > 0 {
				e.raw(",")
			}
			e.solve(res)
		}
		e.raw("]")
	}
	if len(r.Errors) > 0 {
		e.raw(`,"errors":`)
		e.strings(r.Errors)
	}
	e.raw("}")
	return e.end(dst)
}

func (r *StrategiesResponse) appendJSON(dst []byte) ([]byte, error) {
	e := encoder{buf: dst}
	e.raw(`{"strategies":`)
	e.strings(r.Strategies)
	e.raw("}")
	return e.end(dst)
}

func (r *ErrorResponse) appendJSON(dst []byte) ([]byte, error) {
	e := encoder{buf: dst}
	e.raw(`{"error":`)
	e.string(r.Error)
	e.raw("}")
	return e.end(dst)
}

func (e *encoder) solve(r *SolveResponse) {
	if r == nil {
		e.raw("null")
		return
	}
	e.raw(`{"strategy":`)
	e.string(r.Strategy)
	e.raw(`,"model":`)
	e.string(r.Model)
	e.raw(`,"arith":`)
	e.string(r.Arith)
	e.raw(`,"eval":`)
	e.string(r.Eval)
	e.raw(`,"throughput":`)
	e.float(r.Throughput)
	if r.Makespan != 0 {
		e.raw(`,"makespan":`)
		e.float(r.Makespan)
	}
	if r.Cached {
		e.raw(`,"cached":true`)
	}
	if len(r.Send) > 0 {
		e.raw(`,"send":`)
		e.ints(r.Send)
	}
	if len(r.Return) > 0 {
		e.raw(`,"return":`)
		e.ints(r.Return)
	}
	if len(r.Alpha) > 0 {
		e.raw(`,"alpha":`)
		e.floats(r.Alpha)
	}
	if r.Degraded {
		e.raw(`,"degraded":true`)
	}
	if r.DegradedTo != "" {
		e.raw(`,"degraded_to":`)
		e.string(r.DegradedTo)
	}
	e.raw("}")
}

func (e *encoder) raw(s string) { e.buf = append(e.buf, s...) }

// float appends f as encoding/json formats a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from
// 1e21 on, with the exponent's leading zero dropped.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.buf, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 becomes e-7
		b = b[:n-1]
	}
	e.buf = b
}

func (e *encoder) floats(fs []float64) {
	e.raw("[")
	for i, f := range fs {
		if i > 0 {
			e.raw(",")
		}
		e.float(f)
	}
	e.raw("]")
}

func (e *encoder) ints(ns []int) {
	e.raw("[")
	for i, n := range ns {
		if i > 0 {
			e.raw(",")
		}
		e.buf = strconv.AppendInt(e.buf, int64(n), 10)
	}
	e.raw("]")
}

// strings appends a string array, or null for a nil slice.
func (e *encoder) strings(ss []string) {
	if ss == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i, s := range ss {
		if i > 0 {
			e.raw(",")
		}
		e.string(s)
	}
	e.raw("]")
}

// string appends s quoted as encoding/json quotes it with HTML escaping
// on: ", \ and control bytes escaped, <, > and & as \u003c, \u003e and
// \u0026, U+2028 and U+2029 escaped, and each invalid UTF-8 byte
// replaced by \ufffd.
func (e *encoder) string(s string) {
	const hex = "0123456789abcdef"
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.buf = append(b, '"')
}
