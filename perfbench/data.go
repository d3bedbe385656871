package main

// Inputs: the generated hospital dataset, the SQL that loads it, and the
// benchmark's own model of the Prescription rows that the lookups and
// the write units are checked against.

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

// lookupSQL is the point lookup of serve_point and mixed_dml.
const lookupSQL = `SELECT Pre.Quantity, Vis.Purpose FROM Prescription Pre, Visit Vis WHERE Pre.PreID = ?`

// The statements of one write unit.
const (
	insertSQL = `INSERT INTO Prescription VALUES (?, ?, ?, ?, ?, ?)`
	updateSQL = `UPDATE Prescription SET Quantity = ? WHERE PreID = ?`
	deleteSQL = `DELETE FROM Prescription WHERE PreID = ?`
	totalsSQL = `SELECT COUNT(*), SUM(Pre.Quantity) FROM Prescription Pre`
)

// generate builds the dataset for scale prescriptions from seed.
func generate(scale int, seed int64) *datagen.Dataset {
	return datagen.Generate(datagen.Config{Prescriptions: scale, Seed: seed})
}

// loadStatements renders the dataset as SQL: the DDL statements, then
// multi-row INSERTs of at most rowsPerInsert rows each, tables in
// dependency order.
func loadStatements(ds *datagen.Dataset, rowsPerInsert int) (ddl, inserts []string) {
	ddl = append(ddl, ds.DDL...)
	var b strings.Builder
	for _, name := range ds.TableNames() {
		t := ds.Table(name)
		for lo := 0; lo < t.N; lo += rowsPerInsert {
			hi := min(lo+rowsPerInsert, t.N)
			b.Reset()
			fmt.Fprintf(&b, "INSERT INTO %s VALUES ", name)
			for r := lo; r < hi; r++ {
				if r > lo {
					b.WriteString(", ")
				}
				b.WriteByte('(')
				for c := range t.Cols {
					if c > 0 {
						b.WriteString(", ")
					}
					b.WriteString(literal(t.Cols[c][r]))
				}
				b.WriteByte(')')
			}
			inserts = append(inserts, b.String())
		}
	}
	return ddl, inserts
}

// literal renders v as an SQL literal. Dates use the dialect's bare
// date literal (2006-11-05), which parses as a DATE; a quoted string
// would be a CHAR.
func literal(v value.Value) string {
	if v.Kind() == value.Date {
		return v.String()
	}
	return v.SQL()
}

// buildSchema parses the DDL into a frozen catalog, independently of
// the engine, for the oracle.
func buildSchema(ddl []string) (*schema.Schema, error) {
	sch := schema.New()
	for _, text := range ddl {
		st, err := sql.Parse(text)
		if err != nil {
			return nil, err
		}
		ct, ok := st.(*sql.CreateTable)
		if !ok {
			return nil, fmt.Errorf("expected CREATE TABLE, got %T", st)
		}
		cols := make([]schema.Column, len(ct.Columns))
		for i, c := range ct.Columns {
			cols[i] = schema.Column{
				Name:       c.Name,
				Type:       schema.Type{Kind: c.Type.Kind, Size: c.Type.Size},
				Hidden:     c.Hidden,
				PrimaryKey: c.PrimaryKey,
				RefTable:   c.RefTable,
				RefColumn:  c.RefColumn,
			}
		}
		t, err := schema.NewTable(ct.Table, cols)
		if err != nil {
			return nil, err
		}
		if err := sch.AddTable(t); err != nil {
			return nil, err
		}
	}
	return sch, sch.Freeze()
}

// model is the benchmark's own account of the Prescription table: the
// hidden quantity and the visit purpose of every row, by the row's
// current key. Deleted rows keep their key until a CHECKPOINT, which
// renumbers the survivors densely in key order, as the engine
// documents.
type model struct {
	qty      []int64
	purpose  []uint8
	live     []bool
	liveN    int
	sumQty   int64
	purposes []string // purpose strings, indexed by purpose
	visPurp  []uint8  // purpose of each visit, by VisID-1
	meds     int
	dateLo   int64 // visit date range, in days, for new rows
	dateSpan int64
}

// newModel extracts the model from the dataset.
func newModel(ds *datagen.Dataset) *model {
	vis := ds.Table("Visit")
	pre := ds.Table("Prescription")
	m := &model{meds: ds.Table("Medicine").N}
	index := map[string]uint8{}
	m.visPurp = make([]uint8, vis.N)
	for i, v := range vis.Col("Purpose") {
		p, ok := index[v.Str()]
		if !ok {
			p = uint8(len(m.purposes))
			index[v.Str()] = p
			m.purposes = append(m.purposes, v.Str())
		}
		m.visPurp[i] = p
	}
	dates := vis.Col("Date")
	m.dateLo, m.dateSpan = dates[0].DateDays(), 1
	for _, d := range dates {
		m.dateLo = min(m.dateLo, d.DateDays())
	}
	for _, d := range dates {
		m.dateSpan = max(m.dateSpan, d.DateDays()-m.dateLo+1)
	}
	qty, visID := pre.Col("Quantity"), pre.Col("VisID")
	m.qty = make([]int64, pre.N)
	m.purpose = make([]uint8, pre.N)
	m.live = make([]bool, pre.N)
	for i := 0; i < pre.N; i++ {
		m.qty[i] = qty[i].Int()
		m.purpose[i] = m.visPurp[visID[i].Int()-1]
		m.live[i] = true
		m.sumQty += m.qty[i]
	}
	m.liveN = pre.N
	return m
}

// keys reports the number of keys in use, deleted ones included.
func (m *model) keys() int { return len(m.qty) }

// pickLive draws a live key uniformly.
func (m *model) pickLive(rng *rand.Rand) int64 {
	for {
		k := rng.Intn(len(m.qty))
		if m.live[k] {
			return int64(k + 1)
		}
	}
}

// expect reports the lookup answer for a live key.
func (m *model) expect(key int64) (qty int64, purpose string) {
	return m.qty[key-1], m.purposes[m.purpose[key-1]]
}

// writeUnit is one INSERT, UPDATE and DELETE, with their arguments.
type writeUnit struct {
	insert []any
	update []any
	delete []any
}

// nextUnit draws a write unit and applies it to the model.
func (m *model) nextUnit(rng *rand.Rand) writeUnit {
	id := int64(m.keys() + 1)
	q := int64(1 + rng.Intn(100))
	vis := 1 + rng.Intn(len(m.visPurp))
	when := value.NewDateDays(m.dateLo + rng.Int63n(m.dateSpan))
	u := writeUnit{insert: []any{id, q, int64(1 + rng.Intn(4)), when.String(), int64(1 + rng.Intn(m.meds)), int64(vis)}}
	m.qty = append(m.qty, q)
	m.purpose = append(m.purpose, m.visPurp[vis-1])
	m.live = append(m.live, true)
	m.liveN++
	m.sumQty += q

	uk, uq := m.pickLive(rng), int64(1+rng.Intn(100))
	u.update = []any{uq, uk}
	m.sumQty += uq - m.qty[uk-1]
	m.qty[uk-1] = uq

	dk := m.pickLive(rng)
	u.delete = []any{dk}
	m.live[dk-1] = false
	m.liveN--
	m.sumQty -= m.qty[dk-1]
	return u
}

// unitArgBytes is the user data one write unit carries: eight bytes per
// bound argument, the base of storage.bytes_programmed_per_user_byte.
const unitArgBytes = 8 * (6 + 2 + 1)

// checkpoint renumbers the live rows densely, as CHECKPOINT does.
func (m *model) checkpoint() {
	n := 0
	for i := range m.qty {
		if m.live[i] {
			m.qty[n], m.purpose[n], m.live[n] = m.qty[i], m.purpose[i], true
			n++
		}
	}
	m.qty, m.purpose, m.live = m.qty[:n], m.purpose[:n], m.live[:n]
}
