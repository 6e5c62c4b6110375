// Package rel implements a small rights-expression language: the paper's
// own license notation, parsed into the library's license model.
//
// The paper writes licenses as
//
//	(K; Play; T=[10/03/09, 20/03/09], R=[Asia, Europe]; A=2000)
//
// — content K, permission Play, instance-based constraints T (a date
// range) and R (a region list), and aggregate constraint A. This package
// parses exactly that shape, generalised to any schema:
//
//   - interval axes accept [lo, hi] with either raw int64 coordinates or
//     dd/mm/yy dates (mixing is an error);
//   - a bare value v is shorthand for the degenerate range [v, v];
//   - set axes accept [Name1, Name2, ...] resolved against a region
//     taxonomy (or, without a taxonomy, raw leaf ordinals).
//
// A Dialect binds constraint letters (T, R, ...) to schema axes and
// carries the taxonomy; Parser then turns license lines into Licenses.
// Lines starting with '#' and blank lines are ignored, so a corpus can be
// kept in a readable .rel file (see ParseCorpus).
package rel

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/bitset"
	"repro/internal/geometry"
	"repro/internal/interval"
	"repro/internal/license"
	"repro/internal/region"
)

// Dialect maps the notation onto a schema: which constraint tag (e.g. "T")
// denotes which axis, and how set axes resolve names.
type Dialect struct {
	schema *geometry.Schema
	// tagAxis maps upper-cased constraint tags to axis positions.
	tagAxis map[string]int
	// tax resolves set-axis member names; may be nil (raw ordinals).
	tax *region.Taxonomy
	// dateAxis marks interval axes whose coordinates FormatLicense
	// renders as dd/mm/yy dates.
	dateAxis []bool
}

// NewDialect binds tags to schema axes in order: tags[i] names axis i.
func NewDialect(schema *geometry.Schema, tax *region.Taxonomy, tags ...string) (*Dialect, error) {
	if len(tags) != schema.Dims() {
		return nil, fmt.Errorf("rel: %d tags for %d axes", len(tags), schema.Dims())
	}
	d := &Dialect{
		schema:   schema,
		tagAxis:  make(map[string]int, len(tags)),
		tax:      tax,
		dateAxis: make([]bool, len(tags)),
	}
	for i, tag := range tags {
		key := strings.ToUpper(strings.TrimSpace(tag))
		if key == "" {
			return nil, fmt.Errorf("rel: empty tag for axis %d", i)
		}
		if _, dup := d.tagAxis[key]; dup {
			return nil, fmt.Errorf("rel: duplicate tag %q", tag)
		}
		d.tagAxis[key] = i
	}
	return d, nil
}

// PaperDialect returns the dialect of the paper's examples: a "period"
// interval axis tagged T and a "region" set axis tagged R over the given
// taxonomy.
func PaperDialect(tax *region.Taxonomy) (*Dialect, *geometry.Schema, error) {
	schema, err := geometry.NewSchema(
		geometry.Axis{Name: "period", Kind: geometry.KindInterval},
		geometry.Axis{Name: "region", Kind: geometry.KindSet, Universe: tax.NumLeaves()},
	)
	if err != nil {
		return nil, nil, err
	}
	d, err := NewDialect(schema, tax, "T", "R")
	if err != nil {
		return nil, nil, err
	}
	if err := d.FormatAsDates("T"); err != nil {
		return nil, nil, err
	}
	return d, schema, nil
}

// GenericDialect derives a dialect for an arbitrary schema: the paper
// dialect (with date rendering and the given taxonomy) when the schema
// matches it, otherwise upper-cased axis names as tags with raw set
// ordinals. It is what the CLI tools use to render any corpus in the
// notation.
func GenericDialect(schema *geometry.Schema, tax *region.Taxonomy) (*Dialect, error) {
	if tax != nil && schema.Dims() == 2 {
		a0, a1 := schema.Axis(0), schema.Axis(1)
		if a0.Name == "period" && a0.Kind == geometry.KindInterval &&
			a1.Name == "region" && a1.Kind == geometry.KindSet &&
			a1.Universe == tax.NumLeaves() {
			d, err := NewDialect(schema, tax, "T", "R")
			if err != nil {
				return nil, err
			}
			if err := d.FormatAsDates("T"); err != nil {
				return nil, err
			}
			return d, nil
		}
	}
	tags := make([]string, schema.Dims())
	for i := range tags {
		tags[i] = strings.ToUpper(schema.Axis(i).Name)
	}
	return NewDialect(schema, nil, tags...)
}

// FormatAsDates marks interval axes (by tag) whose coordinates should be
// rendered as dd/mm/yy dates by FormatLicense. Parsing is unaffected —
// both raw integers and dates are always accepted.
func (d *Dialect) FormatAsDates(tags ...string) error {
	for _, tag := range tags {
		axis, ok := d.tagAxis[strings.ToUpper(strings.TrimSpace(tag))]
		if !ok {
			return fmt.Errorf("rel: unknown tag %q", tag)
		}
		if d.schema.Axis(axis).Kind != geometry.KindInterval {
			return fmt.Errorf("rel: tag %q is not an interval axis", tag)
		}
		d.dateAxis[axis] = true
	}
	return nil
}

// ParseLicense parses one license expression like
//
//	(K; Play; T=[10/03/09, 20/03/09], R=[Asia, Europe]; A=2000)
//
// into a License of the given kind. The name is attached as-is.
func (d *Dialect) ParseLicense(name string, kind license.Kind, expr string) (*license.License, error) {
	body := strings.TrimSpace(expr)
	if !strings.HasPrefix(body, "(") || !strings.HasSuffix(body, ")") {
		return nil, fmt.Errorf("rel: %s: expression must be parenthesised", name)
	}
	body = body[1 : len(body)-1]
	parts := splitTop(body, ';')
	if len(parts) != 4 {
		return nil, fmt.Errorf("rel: %s: want 4 ';'-separated sections (K; P; constraints; A), got %d", name, len(parts))
	}
	content := strings.TrimSpace(parts[0])
	if content == "" {
		return nil, fmt.Errorf("rel: %s: empty content", name)
	}
	perm := license.Permission(strings.ToLower(strings.TrimSpace(parts[1])))
	if perm == "" {
		return nil, fmt.Errorf("rel: %s: empty permission", name)
	}

	rect, err := d.parseConstraints(name, parts[2])
	if err != nil {
		return nil, err
	}

	aggExpr := strings.TrimSpace(parts[3])
	if !strings.HasPrefix(strings.ToUpper(aggExpr), "A") {
		return nil, fmt.Errorf("rel: %s: aggregate section %q must be A=<count>", name, aggExpr)
	}
	eq := strings.IndexByte(aggExpr, '=')
	if eq < 0 {
		return nil, fmt.Errorf("rel: %s: aggregate section %q must be A=<count>", name, aggExpr)
	}
	agg, err := strconv.ParseInt(strings.TrimSpace(aggExpr[eq+1:]), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("rel: %s: aggregate: %w", name, err)
	}

	l := &license.License{
		Name:       name,
		Kind:       kind,
		Content:    content,
		Permission: perm,
		Rect:       rect,
		Aggregate:  agg,
	}
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("rel: %w", err)
	}
	return l, nil
}

// parseConstraints parses "T=[a,b], R=[x,y]" into a rectangle. Every axis
// of the schema must be constrained exactly once.
func (d *Dialect) parseConstraints(name, s string) (geometry.Rect, error) {
	vals := make([]geometry.Value, d.schema.Dims())
	seen := make([]bool, d.schema.Dims())
	for _, item := range splitTop(s, ',') {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		eq := strings.IndexByte(item, '=')
		if eq < 0 {
			return geometry.Rect{}, fmt.Errorf("rel: %s: constraint %q is not tag=value", name, item)
		}
		tag := strings.ToUpper(strings.TrimSpace(item[:eq]))
		axis, ok := d.tagAxis[tag]
		if !ok {
			return geometry.Rect{}, fmt.Errorf("rel: %s: unknown constraint tag %q", name, tag)
		}
		if seen[axis] {
			return geometry.Rect{}, fmt.Errorf("rel: %s: constraint %q given twice", name, tag)
		}
		seen[axis] = true
		v, err := d.parseValue(axis, strings.TrimSpace(item[eq+1:]))
		if err != nil {
			return geometry.Rect{}, fmt.Errorf("rel: %s: %s: %w", name, tag, err)
		}
		vals[axis] = v
	}
	for i, ok := range seen {
		if !ok {
			return geometry.Rect{}, fmt.Errorf("rel: %s: axis %q unconstrained", name, d.schema.Axis(i).Name)
		}
	}
	return geometry.NewRect(d.schema, vals...)
}

// parseValue parses one axis value: "[a, b]" / bare scalar for intervals,
// "[Name, ...]" for sets.
func (d *Dialect) parseValue(axis int, s string) (geometry.Value, error) {
	ax := d.schema.Axis(axis)
	var items []string
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return geometry.Value{}, fmt.Errorf("unterminated bracket in %q", s)
		}
		for _, it := range strings.Split(s[1:len(s)-1], ",") {
			items = append(items, strings.TrimSpace(it))
		}
	} else {
		items = []string{strings.TrimSpace(s)}
	}
	switch ax.Kind {
	case geometry.KindInterval:
		switch len(items) {
		case 1:
			v, err := parseCoord(items[0])
			if err != nil {
				return geometry.Value{}, err
			}
			return geometry.IntervalValue(interval.Point(v)), nil
		case 2:
			lo, err := parseCoord(items[0])
			if err != nil {
				return geometry.Value{}, err
			}
			hi, err := parseCoord(items[1])
			if err != nil {
				return geometry.Value{}, err
			}
			if lo > hi {
				return geometry.Value{}, fmt.Errorf("reversed range [%s, %s]", items[0], items[1])
			}
			return geometry.IntervalValue(interval.New(lo, hi)), nil
		default:
			return geometry.Value{}, fmt.Errorf("interval wants 1 or 2 values, got %d", len(items))
		}
	case geometry.KindSet:
		if d.tax != nil {
			set, err := d.tax.Resolve(items...)
			if err != nil {
				return geometry.Value{}, err
			}
			if set.Universe() != ax.Universe {
				return geometry.Value{}, fmt.Errorf("taxonomy universe %d does not match axis universe %d",
					set.Universe(), ax.Universe)
			}
			return geometry.SetValue(set), nil
		}
		set := bitset.NewSet(ax.Universe)
		for _, it := range items {
			e, err := strconv.Atoi(it)
			if err != nil {
				return geometry.Value{}, fmt.Errorf("set member %q: %w (no taxonomy bound)", it, err)
			}
			if e < 0 || e >= ax.Universe {
				return geometry.Value{}, fmt.Errorf("set member %d outside universe %d", e, ax.Universe)
			}
			set.Add(e)
		}
		return geometry.SetValue(set), nil
	}
	return geometry.Value{}, fmt.Errorf("unsupported axis kind %v", ax.Kind)
}

// parseCoord accepts a raw int64 or a dd/mm/yy date.
func parseCoord(s string) (int64, error) {
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v, nil
	}
	if v, err := interval.ParseDate(s); err == nil {
		return v, nil
	}
	return 0, fmt.Errorf("coordinate %q is neither an integer nor a dd/mm/yy date", s)
}

// splitTop splits s on sep, ignoring separators inside brackets.
func splitTop(s string, sep byte) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// ParseCorpus reads a .rel corpus file: one license per line in the form
//
//	<name>: (K; Play; T=[...], R=[...]; A=2000)
//
// with '#' comments and blank lines ignored. All licenses are parsed as
// redistribution licenses into one corpus over the dialect's schema.
func (d *Dialect) ParseCorpus(r io.Reader) (*license.Corpus, error) {
	c := license.NewCorpus(d.schema)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			return nil, fmt.Errorf("rel: line %d: want '<name>: (...)'", lineNo)
		}
		name := strings.TrimSpace(line[:colon])
		l, err := d.ParseLicense(name, license.Redistribution, line[colon+1:])
		if err != nil {
			return nil, fmt.Errorf("rel: line %d: %w", lineNo, err)
		}
		if _, err := c.Add(l); err != nil {
			return nil, fmt.Errorf("rel: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rel: reading corpus: %w", err)
	}
	return c, nil
}

// FormatLicense renders a license back into the paper notation, resolving
// set axes through the taxonomy when one is bound. It is the inverse of
// ParseLicense up to whitespace.
func (d *Dialect) FormatLicense(l *license.License) string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(l.Content)
	b.WriteString("; ")
	// Permission is title-cased like the paper's "Play".
	p := string(l.Permission)
	if p != "" {
		p = strings.ToUpper(p[:1]) + p[1:]
	}
	b.WriteString(p)
	b.WriteString("; ")
	tags := make([]string, d.schema.Dims())
	for tag, axis := range d.tagAxis {
		tags[axis] = tag
	}
	for i := 0; i < d.schema.Dims(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(tags[i])
		b.WriteByte('=')
		v := l.Rect.Value(i)
		if v.Kind() == geometry.KindInterval {
			iv := v.Interval()
			if d.dateAxis[i] {
				fmt.Fprintf(&b, "[%s, %s]", interval.FormatDate(iv.Lo), interval.FormatDate(iv.Hi))
			} else {
				fmt.Fprintf(&b, "[%d, %d]", iv.Lo, iv.Hi)
			}
		} else if d.tax != nil {
			b.WriteString("[" + strings.Join(d.tax.Describe(v.Set()), ", ") + "]")
		} else {
			b.WriteString(v.Set().String())
		}
	}
	fmt.Fprintf(&b, "; A=%d)", l.Aggregate)
	return b.String()
}
