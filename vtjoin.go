package vtjoin

import (
	"fmt"

	"vtjoin/internal/chronon"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// Chronon is a point on the discrete valid-time line.
type Chronon = chronon.Chronon

// Interval is an inclusive valid-time interval [Start, End]; the zero
// value is the null interval.
type Interval = chronon.Interval

// Beginning and Forever bound the representable time-line.
const (
	Beginning = chronon.Beginning
	Forever   = chronon.Forever
)

// Span returns the inclusive interval [start, end]; it panics if
// start > end.
func Span(start, end Chronon) Interval { return chronon.New(start, end) }

// At returns the single-chronon interval [t, t].
func At(t Chronon) Interval { return chronon.At(t) }

// Overlap returns the maximal interval contained in both arguments, or
// the null interval when they are disjoint — the timestamp of a
// valid-time natural-join result tuple.
func Overlap(a, b Interval) Interval { return chronon.Overlap(a, b) }

// Value is a typed attribute value.
type Value = value.Value

// Kind identifies a value's type.
type Kind = value.Kind

// The supported attribute kinds.
const (
	KindInt    = value.KindInt
	KindFloat  = value.KindFloat
	KindString = value.KindString
	KindBytes  = value.KindBytes
	KindBool   = value.KindBool
)

// Int returns an integer attribute value.
func Int(v int64) Value { return value.Int(v) }

// Float returns a floating-point attribute value.
func Float(v float64) Value { return value.Float(v) }

// String returns a string attribute value.
func String(v string) Value { return value.String_(v) }

// Bytes returns a byte-string attribute value.
func Bytes(v []byte) Value { return value.Bytes(v) }

// Bool returns a boolean attribute value.
func Bool(v bool) Value { return value.Bool(v) }

// Column is a named, typed attribute of a relation schema.
type Column = schema.Column

// Col is shorthand for constructing a Column.
func Col(name string, kind Kind) Column { return Column{Name: name, Kind: kind} }

// Schema describes the explicit columns of a valid-time relation; the
// timestamp interval is implicit (every tuple carries one).
type Schema = schema.Schema

// NewSchema builds a schema; it panics on duplicate or invalid columns
// (schemas are almost always program constants).
func NewSchema(cols ...Column) *Schema { return schema.MustNew(cols...) }

// Tuple is a valid-time tuple: explicit attribute values plus a
// timestamp interval.
type Tuple = tuple.Tuple

// NewTuple constructs a tuple with the given timestamp and values.
func NewTuple(v Interval, values ...Value) Tuple { return tuple.New(v, values...) }

// DB is a collection of valid-time relations on one simulated paged
// device. All relations joined together must come from the same DB.
type DB struct {
	d *disk.Disk
}

// Option configures Open.
type Option func(*config)

type config struct {
	pageSize   int
	pageFormat PageFormat
}

// WithPageSize sets the device page size in bytes (default 4096, the
// configuration of the paper's experiments).
func WithPageSize(bytes int) Option {
	return func(c *config) { c.pageSize = bytes }
}

// WithPageFormat sets the page codec newly created relations are
// written in (default PageFormatV1, the classic slotted layout).
// PageFormatV2 delta-encodes timestamps against a per-page base
// chronon and dictionary-compresses repeated attribute values; both
// formats are self-describing, so v1 and v2 pages coexist on one
// device and every reader handles either.
func WithPageFormat(f PageFormat) Option {
	return func(c *config) { c.pageFormat = f }
}

// Open creates an empty in-memory database. It panics if a configured
// page size is below the slotted-page minimum or above 64 KiB.
func Open(opts ...Option) *DB {
	c := config{pageSize: 4096}
	for _, o := range opts {
		o(&c)
	}
	if c.pageSize < page.MinSize || c.pageSize > 65535 {
		panic(fmt.Sprintf("vtjoin: page size %d outside [%d, 65535]", c.pageSize, page.MinSize))
	}
	if c.pageFormat != 0 && !c.pageFormat.Valid() {
		panic(fmt.Sprintf("vtjoin: invalid page format %d", c.pageFormat))
	}
	db := &DB{d: disk.New(c.pageSize)}
	if c.pageFormat != 0 {
		db.d.SetPageFormat(c.pageFormat)
	}
	return db
}

// OpenDir creates a database whose pages persist as real files under
// dir. Costs are accounted identically to the in-memory database; the
// backend only changes where the bytes live.
func OpenDir(dir string, opts ...Option) (*DB, error) {
	c := config{pageSize: 4096}
	for _, o := range opts {
		o(&c)
	}
	if c.pageSize < page.MinSize || c.pageSize > 65535 {
		return nil, fmt.Errorf("vtjoin: page size %d outside [%d, 65535]", c.pageSize, page.MinSize)
	}
	if c.pageFormat != 0 && !c.pageFormat.Valid() {
		return nil, fmt.Errorf("vtjoin: invalid page format %d", c.pageFormat)
	}
	d, err := disk.NewFileBacked(c.pageSize, dir)
	if err != nil {
		return nil, err
	}
	if c.pageFormat != 0 {
		d.SetPageFormat(c.pageFormat)
	}
	return &DB{d: d}, nil
}

// Close releases the database's resources (open files, memory).
func (db *DB) Close() error { return db.d.Close() }

// PageSize returns the device page size in bytes.
func (db *DB) PageSize() int { return db.d.PageSize() }

// PageFormat identifies a page codec. Pages are self-describing, so
// the format only governs how new pages are written.
type PageFormat = page.Format

// Page codecs selectable via WithPageFormat / ParsePageFormat.
const (
	// PageFormatV1 is the classic slotted-page layout: an explicit slot
	// directory, records encoded verbatim.
	PageFormatV1 = page.FormatV1
	// PageFormatV2 delta-encodes tuple timestamps against a per-page
	// base chronon and deduplicates repeated attribute values through a
	// per-page dictionary, falling back to plain encoding per value
	// when the dictionary does not pay.
	PageFormatV2 = page.FormatV2
)

// ParsePageFormat parses "v1"/"1" or "v2"/"2".
func ParsePageFormat(s string) (PageFormat, error) { return page.ParseFormat(s) }

// PageFormat returns the codec newly created relations default to.
func (db *DB) PageFormat() PageFormat { return db.d.PageFormat() }

// ResetIOCounters zeroes the device's I/O counters, excluding all
// prior work (e.g. data loading) from subsequent cost reports.
func (db *DB) ResetIOCounters() { db.d.ResetCounters() }

// IOCounters returns the raw access counts since the last reset.
func (db *DB) IOCounters() IOCounters { return ioCounters(db.d.Counters()) }

// ioCounters converts the device's counters into the public form.
func ioCounters(c disk.Counters) IOCounters {
	return IOCounters{
		RandomReads:      c.RandReads,
		SequentialReads:  c.SeqReads,
		RandomWrites:     c.RandWrites,
		SequentialWrites: c.SeqWrites,
		Retries:          c.Retries,
		BytesMoved:       c.BytesMoved,
	}
}

// IOCounters are page-access counts split by the paper's cost classes,
// plus the accesses re-issued after transient storage faults (each
// retry is also charged in its class; Retries says how many of the
// class counts were fault-induced extras).
type IOCounters struct {
	RandomReads      int64
	SequentialReads  int64
	RandomWrites     int64
	SequentialWrites int64
	Retries          int64
	// BytesMoved is the page bytes transferred by the counted accesses
	// (page size times attempts, retries included). Page counts measure
	// the paper's cost model; bytes expose what a compressed codec
	// saves when the same tuples occupy fewer pages.
	BytesMoved int64
}

// PageDamage reports one page that failed checksum verification or
// could not be read during a Scrub.
type PageDamage struct {
	File int32
	Page int
	Err  error
}

// Scrub walks every page of every file in the database verifying the
// per-page CRC32-C checksums, and reports the damaged pages (nil when
// the device is clean). Scrubbing is maintenance: its I/O is not
// charged to the cost counters.
func (db *DB) Scrub() ([]PageDamage, error) {
	damage, err := db.d.Scrub()
	out := make([]PageDamage, 0, len(damage))
	for _, dm := range damage {
		out = append(out, PageDamage{File: int32(dm.File), Page: dm.Page, Err: dm.Err})
	}
	if len(out) == 0 {
		out = nil
	}
	return out, err
}

// Relation is a valid-time relation stored in a DB.
type Relation struct {
	db  *DB
	rel *relation.Relation
}

// CreateRelation allocates an empty relation with the given schema.
func (db *DB) CreateRelation(s *Schema) (*Relation, error) {
	if s == nil {
		return nil, fmt.Errorf("vtjoin: nil schema")
	}
	return &Relation{db: db, rel: relation.Create(db.d, s)}, nil
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.rel.Schema() }

// Cardinality returns the number of tuples in the relation.
func (r *Relation) Cardinality() int64 { return r.rel.Tuples() }

// Pages returns the number of disk pages the relation occupies, or an
// error if the backing file is gone (dropped, or lost to a storage
// fault).
func (r *Relation) Pages() (int, error) { return r.rel.Pages() }

// Lifespan returns the hull of all tuple timestamps (null if empty).
func (r *Relation) Lifespan() Interval { return r.rel.Lifespan() }

// All materializes every tuple in storage order. The scan's I/O is
// counted.
func (r *Relation) All() ([]Tuple, error) { return r.rel.All() }

// Loader appends tuples to a relation page by page. Close (or
// MustClose) flushes the trailing partial page.
type Loader struct {
	b *relation.Builder
}

// Loader returns a new loader for the relation.
func (r *Relation) Loader() *Loader { return &Loader{b: r.rel.NewBuilder()} }

// Append validates the tuple against the schema and adds it.
func (l *Loader) Append(v Interval, values ...Value) error {
	return l.b.Append(tuple.New(v, values...))
}

// AppendTuple adds a prebuilt tuple.
func (l *Loader) AppendTuple(t Tuple) error { return l.b.Append(t) }

// Close flushes buffered tuples to the relation.
func (l *Loader) Close() error { return l.b.Flush() }

// Load builds a relation from a tuple slice in one call.
func (db *DB) Load(s *Schema, tuples []Tuple) (*Relation, error) {
	rel, err := relation.FromTuples(db.d, s, tuples)
	if err != nil {
		return nil, err
	}
	return &Relation{db: db, rel: rel}, nil
}

// internal accessor used by the join layer.
func (r *Relation) internal() *relation.Relation { return r.rel }
