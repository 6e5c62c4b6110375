// Package interval implements one-dimensional closed integer intervals, the
// geometric primitive behind range-valued instance constraints (validity
// period, resolution range, bandwidth range, ...).
//
// The paper represents every license as an M-dimensional hyper-rectangle;
// each range-valued constraint axis of that rectangle is an Interval. The
// two relations the geometric approach needs are exactly Contains (instance
// validation: an issued license's range must lie within the redistribution
// license's range) and Overlaps (overlap-graph edges: two licenses overlap
// iff every axis overlaps).
//
// Coordinates are int64. Calendar dates are mapped onto coordinates via
// the Date/ParseDate helpers (days since the Unix epoch), so a validity
// period like [10/03/09, 20/03/09] becomes an ordinary Interval.
package interval

import (
	"fmt"
	"time"
)

// Interval is a closed interval [Lo, Hi] over int64 coordinates.
// An interval with Lo > Hi is empty; Empty() is the canonical empty value.
type Interval struct {
	Lo, Hi int64
}

// New returns the closed interval [lo, hi]. If lo > hi the result is empty;
// callers that consider that a user error should check Valid themselves.
func New(lo, hi int64) Interval { return Interval{Lo: lo, Hi: hi} }

// Point returns the degenerate interval [v, v], used for single-valued
// instance constraints in usage licenses (e.g. an exact expiry date).
func Point(v int64) Interval { return Interval{Lo: v, Hi: v} }

// Empty returns a canonical empty interval.
func Empty() Interval { return Interval{Lo: 1, Hi: 0} }

// IsEmpty reports whether the interval contains no points.
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// Len returns the number of integer points in the interval (Hi−Lo+1),
// or 0 if empty. Note this is a count, not a Euclidean length.
func (iv Interval) Len() int64 {
	if iv.IsEmpty() {
		return 0
	}
	return iv.Hi - iv.Lo + 1
}

// ContainsPoint reports whether v lies in the interval.
func (iv Interval) ContainsPoint(v int64) bool {
	return iv.Lo <= v && v <= iv.Hi
}

// Contains reports whether o is entirely inside iv. The empty interval is
// contained in every interval (vacuously), and contains only the empty one.
func (iv Interval) Contains(o Interval) bool {
	if o.IsEmpty() {
		return true
	}
	if iv.IsEmpty() {
		return false
	}
	return iv.Lo <= o.Lo && o.Hi <= iv.Hi
}

// Overlaps reports whether iv ∩ o is non-empty.
func (iv Interval) Overlaps(o Interval) bool {
	if iv.IsEmpty() || o.IsEmpty() {
		return false
	}
	return iv.Lo <= o.Hi && o.Lo <= iv.Hi
}

// Intersect returns iv ∩ o (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	out := Interval{Lo: max64(iv.Lo, o.Lo), Hi: min64(iv.Hi, o.Hi)}
	if out.IsEmpty() {
		return Empty()
	}
	return out
}

// Hull returns the smallest interval containing both iv and o.
// The hull with an empty interval is the other interval.
func (iv Interval) Hull(o Interval) Interval {
	if iv.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return iv
	}
	return Interval{Lo: min64(iv.Lo, o.Lo), Hi: max64(iv.Hi, o.Hi)}
}

// Equal reports whether the two intervals contain the same points.
// All empty intervals are equal regardless of representation.
func (iv Interval) Equal(o Interval) bool {
	if iv.IsEmpty() && o.IsEmpty() {
		return true
	}
	return iv.Lo == o.Lo && iv.Hi == o.Hi
}

// String renders like "[3,17]" or "∅".
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "∅"
	}
	return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// dateLayout matches the paper's dd/mm/yy license notation, e.g. "10/03/09".
const dateLayout = "02/01/06"

// secondsPerDay converts epoch seconds into epoch days.
const secondsPerDay = 24 * 60 * 60

// ParseDate parses the paper's dd/mm/yy notation ("10/03/09") into a
// coordinate: days since the Unix epoch (UTC), so that validity periods
// become integer intervals. Two-digit years follow Go's reference-layout
// rule (69..99 → 19xx, otherwise 20xx), which matches the paper's 2009
// examples.
func ParseDate(s string) (int64, error) {
	t, err := time.Parse(dateLayout, s)
	if err != nil {
		return 0, fmt.Errorf("interval: parse date %q: %w", s, err)
	}
	return t.Unix() / secondsPerDay, nil
}

// FormatDate renders a coordinate produced by ParseDate back into
// dd/mm/yy notation.
func FormatDate(coord int64) string {
	t := time.Unix(coord*secondsPerDay, 0).UTC()
	return t.Format(dateLayout)
}

// DateRange builds the validity-period interval [from, to] out of two
// dd/mm/yy strings.
func DateRange(from, to string) (Interval, error) {
	lo, err := ParseDate(from)
	if err != nil {
		return Empty(), err
	}
	hi, err := ParseDate(to)
	if err != nil {
		return Empty(), err
	}
	if lo > hi {
		return Empty(), fmt.Errorf("interval: date range %s..%s is reversed", from, to)
	}
	return New(lo, hi), nil
}

// MustDateRange is DateRange for trusted literals; it panics on error.
func MustDateRange(from, to string) Interval {
	iv, err := DateRange(from, to)
	if err != nil {
		panic(err)
	}
	return iv
}
