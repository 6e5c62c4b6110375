package interval

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestIsEmpty(t *testing.T) {
	if New(0, 5).IsEmpty() {
		t.Error("[0,5] reported empty")
	}
	if !New(5, 0).IsEmpty() {
		t.Error("[5,0] not reported empty")
	}
	if !Empty().IsEmpty() {
		t.Error("Empty() not empty")
	}
	if Point(3).IsEmpty() {
		t.Error("Point(3) reported empty")
	}
}

func TestLen(t *testing.T) {
	cases := []struct {
		iv   Interval
		want int64
	}{
		{New(0, 0), 1},
		{New(1, 10), 10},
		{Empty(), 0},
		{New(-5, 5), 11},
	}
	for _, c := range cases {
		if got := c.iv.Len(); got != c.want {
			t.Errorf("%v.Len() = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestContainsPoint(t *testing.T) {
	iv := New(3, 7)
	for v, want := range map[int64]bool{2: false, 3: true, 5: true, 7: true, 8: false} {
		if got := iv.ContainsPoint(v); got != want {
			t.Errorf("ContainsPoint(%d) = %v, want %v", v, got, want)
		}
	}
	if Empty().ContainsPoint(0) {
		t.Error("empty interval contains a point")
	}
}

func TestContains(t *testing.T) {
	big, small := New(0, 100), New(10, 20)
	if !big.Contains(small) {
		t.Error("big should contain small")
	}
	if small.Contains(big) {
		t.Error("small should not contain big")
	}
	if !big.Contains(big) {
		t.Error("Contains should be reflexive")
	}
	if !big.Contains(Empty()) {
		t.Error("every interval contains the empty interval")
	}
	if Empty().Contains(small) {
		t.Error("empty interval contains a non-empty one")
	}
	if !Empty().Contains(Empty()) {
		t.Error("empty should contain empty")
	}
	// Partial overlap is not containment.
	if big.Contains(New(90, 110)) {
		t.Error("partial overlap treated as containment")
	}
}

func TestOverlapsAndIntersect(t *testing.T) {
	a, b := New(0, 10), New(5, 15)
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("overlapping intervals reported disjoint")
	}
	if got := a.Intersect(b); !got.Equal(New(5, 10)) {
		t.Errorf("Intersect = %v, want [5,10]", got)
	}
	// Touching endpoints overlap in a closed-interval model.
	if !New(0, 5).Overlaps(New(5, 9)) {
		t.Error("closed intervals sharing an endpoint must overlap")
	}
	if New(0, 4).Overlaps(New(5, 9)) {
		t.Error("adjacent but disjoint intervals reported overlapping")
	}
	if a.Overlaps(Empty()) || Empty().Overlaps(a) {
		t.Error("empty interval overlaps something")
	}
	if got := New(0, 2).Intersect(New(5, 9)); !got.IsEmpty() {
		t.Errorf("Intersect disjoint = %v, want empty", got)
	}
}

func TestHull(t *testing.T) {
	if got := New(0, 2).Hull(New(10, 12)); !got.Equal(New(0, 12)) {
		t.Errorf("Hull = %v, want [0,12]", got)
	}
	if got := Empty().Hull(New(1, 2)); !got.Equal(New(1, 2)) {
		t.Errorf("Hull with empty = %v, want [1,2]", got)
	}
	if got := New(1, 2).Hull(Empty()); !got.Equal(New(1, 2)) {
		t.Errorf("Hull with empty = %v, want [1,2]", got)
	}
}

func TestEqualNormalizesEmpty(t *testing.T) {
	if !New(9, 2).Equal(Empty()) {
		t.Error("two empty intervals should be Equal")
	}
	if New(1, 2).Equal(New(1, 3)) {
		t.Error("different intervals reported Equal")
	}
}

func TestString(t *testing.T) {
	if got := New(3, 17).String(); got != "[3,17]" {
		t.Errorf("String = %q", got)
	}
	if got := Empty().String(); got != "∅" {
		t.Errorf("empty String = %q", got)
	}
}

func TestDateRoundTrip(t *testing.T) {
	coord := time.Date(2009, time.March, 10, 0, 0, 0, 0, time.UTC).Unix() / secondsPerDay
	if got := FormatDate(coord); got != "10/03/09" {
		t.Errorf("FormatDate = %q, want 10/03/09", got)
	}
	parsed, err := ParseDate("10/03/09")
	if err != nil {
		t.Fatal(err)
	}
	if parsed != coord {
		t.Errorf("ParseDate = %d, want %d", parsed, coord)
	}
}

// mustDate is ParseDate for test literals; it panics on error.
func mustDate(s string) int64 {
	v, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v
}

func TestDateOrdering(t *testing.T) {
	// The paper's Example 1 period arithmetic must hold.
	a := mustDate("10/03/09")
	b := mustDate("20/03/09")
	if b-a != 10 {
		t.Errorf("20/03/09 - 10/03/09 = %d days, want 10", b-a)
	}
	// Crossing a month boundary.
	c := mustDate("25/03/09")
	d := mustDate("10/04/09")
	if d-c != 16 {
		t.Errorf("10/04/09 - 25/03/09 = %d days, want 16", d-c)
	}
}

func TestParseDateError(t *testing.T) {
	if _, err := ParseDate("2009-03-10"); err == nil {
		t.Error("expected error for ISO layout")
	}
	if _, err := ParseDate("32/01/09"); err == nil {
		t.Error("expected error for day 32")
	}
}

func TestDateRange(t *testing.T) {
	iv, err := DateRange("15/03/09", "25/03/09")
	if err != nil {
		t.Fatal(err)
	}
	if iv.Len() != 11 {
		t.Errorf("range length = %d days, want 11 (closed)", iv.Len())
	}
	if _, err := DateRange("25/03/09", "15/03/09"); err == nil {
		t.Error("reversed range must error")
	}
	if _, err := DateRange("bad", "15/03/09"); err == nil {
		t.Error("bad from date must error")
	}
	if _, err := DateRange("15/03/09", "bad"); err == nil {
		t.Error("bad to date must error")
	}
}

func TestPaperExample1Periods(t *testing.T) {
	// L_D^1 period contains L_U^1 period; L_D^2 contains it too.
	ld1 := MustDateRange("10/03/09", "20/03/09")
	ld2 := MustDateRange("15/03/09", "25/03/09")
	lu1 := MustDateRange("15/03/09", "19/03/09")
	if !ld1.Contains(lu1) || !ld2.Contains(lu1) {
		t.Error("L_U^1 period must be inside both L_D^1 and L_D^2")
	}
	// L_U^2 period [21..24/03] is inside L_D^2 only.
	lu2 := MustDateRange("21/03/09", "24/03/09")
	if ld1.Contains(lu2) {
		t.Error("L_U^2 period must not be inside L_D^1")
	}
	if !ld2.Contains(lu2) {
		t.Error("L_U^2 period must be inside L_D^2")
	}
}

func randIv(r *rand.Rand) Interval {
	lo := r.Int63n(200) - 100
	hi := lo + r.Int63n(50) - 5 // sometimes empty
	return Interval{Lo: lo, Hi: hi}
}

func TestIntervalLawsQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randIv(r), randIv(r), randIv(r)
		// Intersection commutes and is contained in both operands.
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		if !a.Contains(a.Intersect(b)) || !b.Contains(a.Intersect(b)) {
			return false
		}
		// Overlaps ⇔ non-empty intersection.
		if a.Overlaps(b) != !a.Intersect(b).IsEmpty() {
			return false
		}
		// Containment is transitive.
		if a.Contains(b) && b.Contains(c) && !a.Contains(c) {
			return false
		}
		// Hull contains both operands.
		h := a.Hull(b)
		if !h.Contains(a) || !h.Contains(b) {
			return false
		}
		// Intersection associates.
		if !a.Intersect(b).Intersect(c).Equal(a.Intersect(b.Intersect(c))) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
