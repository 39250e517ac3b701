package serve

import (
	"bytes"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"github.com/score-dc/score/internal/cluster"
)

// observeScratch is what one POST /v1/observe decodes through: the body
// as read off the wire and the samples scanned out of it. Both keep
// their capacity across requests.
type observeScratch struct {
	body    bytes.Buffer
	samples []RateSample
}

var observePool = sync.Pool{New: func() any { return new(observeScratch) }}

// observeScan is scanObserve's cursor over a request body.
type observeScan struct {
	b []byte
	i int
}

// peek skips JSON whitespace and returns the byte the cursor then rests
// on, or 0 at the end of input — a byte no JSON token starts with, so
// callers need no separate end test.
func (s *observeScan) peek() byte {
	for s.i < len(s.b) {
		c := s.b[s.i]
		if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
		s.i++
	}
	return 0
}

// eat consumes c if it is the next byte after any whitespace.
func (s *observeScan) eat(c byte) bool {
	s.peek()
	return s.opt(c)
}

// opt consumes c if the cursor rests on it.
func (s *observeScan) opt(c byte) bool {
	if s.i == len(s.b) || s.b[s.i] != c {
		return false
	}
	s.i++
	return true
}

// key consumes the bytes of k if the cursor rests on exactly them. With
// k a quoted name it matches that key spelled without escapes and no
// other: the closing quote is part of the match. (A byte loop: the keys
// are short and mostly differ in their second byte.)
func (s *observeScan) key(k string) bool {
	if len(s.b)-s.i < len(k) {
		return false
	}
	for j := 0; j < len(k); j++ {
		if s.b[s.i+j] != k[j] {
			return false
		}
	}
	s.i += len(k)
	return true
}

// digits consumes a run of decimal digits, appending them to mant, and
// returns the new mantissa and the run's length. mant wraps past 19
// digits; float64 uses it only for runs of at most 15 in all.
func (s *observeScan) digits(mant uint64) (uint64, int) {
	start := s.i
	for s.i < len(s.b) && s.b[s.i]-'0' <= 9 {
		mant = mant*10 + uint64(s.b[s.i]-'0')
		s.i++
	}
	return mant, s.i - start
}

// uint32 consumes a plain decimal integer no larger than 2³²−1: no sign,
// no leading zero. A fraction or exponent behind it is left for the
// caller, which expects a separator there and declines.
func (s *observeScan) uint32() (uint32, bool) {
	s.peek()
	start := s.i
	var n uint64
	for s.i < len(s.b) && s.b[s.i]-'0' <= 9 {
		n = n*10 + uint64(s.b[s.i]-'0')
		if n > math.MaxUint32 {
			return 0, false
		}
		s.i++
	}
	if s.i == start || (s.b[start] == '0' && s.i-start > 1) {
		return 0, false
	}
	return uint32(n), true
}

// exactPow10 holds the powers of ten float64's fast path divides by, all
// exact float64s.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// fastDigits is the most digits float64's fast path takes: any such
// mantissa is below 10^15 < 2^53.
const fastDigits = 15

// float64 consumes one number of the JSON grammar and converts it the
// way encoding/json does, refusing what strconv.ParseFloat refuses (a
// magnitude past float64). It folds the digits into an integer mantissa
// as it checks the grammar. A number with no exponent and at most 15
// digits (a lone leading 0 not counted) is then mant / 10^frac, negated
// for a leading '-' so "-0" stays −0. That is exact: mant < 10^15 < 2^53
// and 10^frac ≤ 10^15 are exact float64s, so the one division rounds
// once, to the value ParseFloat returns (Clinger's fast path, which
// ParseFloat itself takes). It covers rates printed at a fixed precision
// of a few decimals. Any other number — an exponent, or more digits, as
// a shortest-form rate on the 2^-20 grid usually has — goes to
// ParseFloat.
func (s *observeScan) float64() (float64, bool) {
	s.peek()
	start := s.i
	neg := s.opt('-')
	var mant uint64
	var whole, frac int
	if !s.opt('0') {
		if mant, whole = s.digits(0); whole == 0 {
			return 0, false
		}
	}
	if s.opt('.') {
		if mant, frac = s.digits(mant); frac == 0 {
			return 0, false
		}
	}
	if s.opt('e') || s.opt('E') {
		if !s.opt('+') {
			s.opt('-')
		}
		if _, n := s.digits(0); n == 0 {
			return 0, false
		}
	} else if whole+frac <= fastDigits {
		f := float64(mant) / exactPow10[frac]
		if neg {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, err == nil
}

// plainString consumes a JSON string that needs no unquoting: no escape,
// no control byte, and valid UTF-8 (encoding/json would substitute
// U+FFFD into anything else).
func (s *observeScan) plainString() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start, ascii := s.i, true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			str := s.b[start:s.i]
			s.i++
			return str, ascii || utf8.Valid(str)
		case c == '\\' || c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// Bits of sample's and scanObserve's seen-key sets.
const (
	keyA = 1 << iota
	keyB
	keyRate
	keySource
	keySamples
)

// sample consumes one {"a":…,"b":…,"rate_mbps":…} object: those keys
// only, in any order, none twice; a missing one leaves its zero.
func (s *observeScan) sample() (RateSample, bool) {
	var out RateSample
	if !s.eat('{') {
		return out, false
	}
	for seen := 0; !s.eat('}'); {
		if seen != 0 && !s.eat(',') {
			return out, false
		}
		s.peek()
		var key int
		switch {
		case s.key(`"a"`):
			key = keyA
		case s.key(`"b"`):
			key = keyB
		case s.key(`"rate_mbps"`):
			key = keyRate
		}
		if key == 0 || seen&key != 0 || !s.eat(':') {
			return out, false
		}
		seen |= key
		var n uint32
		var ok bool
		switch key {
		case keyA:
			n, ok = s.uint32()
			out.A = cluster.VMID(n)
		case keyB:
			n, ok = s.uint32()
			out.B = cluster.VMID(n)
		case keyRate:
			out.RateMbps, ok = s.float64()
		}
		if !ok {
			return out, false
		}
	}
	return out, true
}

// scanObserve decodes a POST /v1/observe body in one pass, appending its
// samples to dst[:0]. It is not a JSON decoder. It accepts the bodies it
// can decode exactly as decodeStrict into an observeBody would — same
// source, same samples, bit for bit — and declines (ok false) every
// other: the caller then runs that reference decoder over the same
// bytes, which alone decides whether they are an error and what it says.
// So everything encoding/json does beyond the plain case stays its
// business: keys matched under Unicode case folding, the last duplicate
// winning, null as a no-op, escapes, U+FFFD for invalid UTF-8.
//
// Accepted: an object with the keys "source" and "samples", spelled so,
// in any order, each at most once; source a string plainString takes;
// samples an array of at most maxBatchSamples objects that sample takes;
// any JSON whitespace between tokens; only whitespace after the object.
// FuzzObserveDecode holds the two decoders to that agreement.
func scanObserve(body []byte, dst []RateSample) (source []byte, samples []RateSample, ok bool) {
	s := observeScan{b: body}
	samples = dst[:0]
	if !s.eat('{') {
		return nil, samples, false
	}
	for seen := 0; !s.eat('}'); {
		if seen != 0 && !s.eat(',') {
			return nil, samples, false
		}
		s.peek()
		var key int
		switch {
		case s.key(`"source"`):
			key = keySource
		case s.key(`"samples"`):
			key = keySamples
		}
		if key == 0 || seen&key != 0 || !s.eat(':') {
			return nil, samples, false
		}
		seen |= key
		if key == keySource {
			if source, ok = s.plainString(); !ok {
				return nil, samples, false
			}
			continue
		}
		if !s.eat('[') {
			return nil, samples, false
		}
		for !s.eat(']') {
			if len(samples) == maxBatchSamples || (len(samples) > 0 && !s.eat(',')) {
				return nil, samples, false
			}
			one, taken := s.sample()
			if !taken {
				return nil, samples, false
			}
			samples = append(samples, one)
		}
	}
	return source, samples, s.peek() == 0 && s.i == len(body)
}
