package main

// The two public surfaces the workloads drive: ghostdb-server's JSON
// API over a loopback HTTP connection, and one database/sql connection
// through the ghostdb driver. Both offer the same operations, so the
// write units and the checkpoint cycle are written once.

import (
	"bytes"
	"context"
	"database/sql"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/ghostdb/ghostdb/driver"
	"github.com/ghostdb/ghostdb/internal/core"
)

// surface is one client's way into the engine.
type surface interface {
	// exec runs one DDL, DML or CHECKPOINT statement (or a script of
	// them) and reports the rows it affected.
	exec(sqlText string, args ...any) (int64, error)
	// lookup runs the point lookup and returns its rows.
	lookup(key int64) ([]lookupRow, error)
	// totals runs COUNT(*) and SUM(Quantity) over Prescription.
	totals() (count, sum int64, err error)
	// checkpoint merges the delta and reports the entries absorbed.
	checkpoint() (int64, error)
}

type lookupRow struct {
	qty     int64
	purpose string
}

// --- HTTP ---------------------------------------------------------------

// httpSurface posts to ghostdb-server's /v1 endpoints.
type httpSurface struct {
	base   string
	client *http.Client
	// retries counts 429 answers; the request is sent again.
	retries int64
	// last holds the engine-side figures of the last query response.
	lastSimNS, lastWallNS int64
}

type wireQuery struct {
	SQL  string `json:"sql"`
	Args []any  `json:"args,omitempty"`
}

type wireRows struct {
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
	SimNS   int64    `json:"sim_ns"`
	WallNS  int64    `json:"wall_ns"`
}

type wireExec struct {
	RowsAffected int64 `json:"rows_affected"`
	Absorbed     int64 `json:"absorbed"`
}

func (h *httpSurface) post(path string, req any, into any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	for {
		resp, err := h.client.Post(h.base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			h.retries++
			time.Sleep(time.Millisecond)
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
		}
		return json.NewDecoder(resp.Body).Decode(into)
	}
}

func (h *httpSurface) exec(sqlText string, args ...any) (int64, error) {
	var r wireExec
	err := h.post("/v1/exec", wireQuery{SQL: sqlText, Args: args}, &r)
	return r.RowsAffected, err
}

func (h *httpSurface) query(sqlText string, args ...any) (*wireRows, error) {
	var r wireRows
	if err := h.post("/v1/query", wireQuery{SQL: sqlText, Args: args}, &r); err != nil {
		return nil, err
	}
	h.lastSimNS, h.lastWallNS = r.SimNS, r.WallNS
	return &r, nil
}

func (h *httpSurface) lookup(key int64) ([]lookupRow, error) {
	r, err := h.query(lookupSQL, key)
	if err != nil {
		return nil, err
	}
	out := make([]lookupRow, 0, len(r.Rows))
	for _, row := range r.Rows {
		if len(row) != 2 {
			return nil, fmt.Errorf("lookup row has %d columns", len(row))
		}
		q, _ := row[0].(float64)
		p, _ := row[1].(string)
		out = append(out, lookupRow{qty: int64(q), purpose: p})
	}
	return out, nil
}

func (h *httpSurface) totals() (int64, int64, error) {
	r, err := h.query(totalsSQL)
	if err != nil {
		return 0, 0, err
	}
	if len(r.Rows) != 1 || len(r.Rows[0]) != 2 {
		return 0, 0, fmt.Errorf("totals: %d rows", len(r.Rows))
	}
	c, _ := r.Rows[0][0].(float64)
	s, _ := r.Rows[0][1].(float64)
	return int64(c), int64(s), nil
}

func (h *httpSurface) checkpoint() (int64, error) {
	var r wireExec
	err := h.post("/v1/checkpoint", struct{}{}, &r)
	return r.Absorbed, err
}

// --- database/sql -------------------------------------------------------

// sqlSurface drives one database/sql connection with prepared
// statements. When timed is set it adds the time spent in Query and in
// rows.Next/Scan to the driver counters.
type sqlSurface struct {
	ctx    context.Context
	conn   *sql.Conn
	stmts  map[string]*sql.Stmt
	timed  bool
	queryT time.Duration
	scanT  time.Duration
	scanN  int64
	querN  int64
}

func newSQLSurface(conn *sql.Conn) *sqlSurface {
	return &sqlSurface{ctx: context.Background(), conn: conn, stmts: map[string]*sql.Stmt{}}
}

// session is the connection's engine session, for the counters only the
// engine can give (simulated time, plan cache, delta, storage).
func (s *sqlSurface) session() (*core.Session, error) {
	var sess *core.Session
	err := s.conn.Raw(func(dc any) error {
		c, ok := dc.(*driver.Conn)
		if !ok {
			return fmt.Errorf("connection is %T, not a ghostdb connection", dc)
		}
		sess = c.Session()
		return nil
	})
	return sess, err
}

func (s *sqlSurface) stmt(text string) (*sql.Stmt, error) {
	if st, ok := s.stmts[text]; ok {
		return st, nil
	}
	st, err := s.conn.PrepareContext(s.ctx, text)
	if err != nil {
		return nil, err
	}
	s.stmts[text] = st
	return st, nil
}

func (s *sqlSurface) close() {
	for _, st := range s.stmts {
		st.Close()
	}
	s.conn.Close()
}

func (s *sqlSurface) exec(text string, args ...any) (int64, error) {
	var res sql.Result
	var err error
	if len(args) == 0 {
		res, err = s.conn.ExecContext(s.ctx, text)
	} else {
		var st *sql.Stmt
		if st, err = s.stmt(text); err == nil {
			res, err = st.ExecContext(s.ctx, args...)
		}
	}
	if err != nil {
		return 0, err
	}
	return res.RowsAffected()
}

// query runs text (prepared when it has arguments), hands the result to
// begin (if set) and then every row to scan.
func (s *sqlSurface) query(text string, args []any, begin, scan func(*sql.Rows) error) error {
	t0 := time.Now()
	var rows *sql.Rows
	var err error
	if len(args) == 0 {
		rows, err = s.conn.QueryContext(s.ctx, text)
	} else {
		var st *sql.Stmt
		if st, err = s.stmt(text); err == nil {
			rows, err = st.QueryContext(s.ctx, args...)
		}
	}
	t1 := time.Now()
	if err != nil {
		return err
	}
	defer rows.Close()
	if begin != nil {
		if err := begin(rows); err != nil {
			return err
		}
	}
	var n int64
	for rows.Next() {
		if err := scan(rows); err != nil {
			return err
		}
		n++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if s.timed {
		s.queryT += t1.Sub(t0)
		s.scanT += time.Since(t1)
		s.scanN += n
		s.querN++
	}
	return nil
}

func (s *sqlSurface) lookup(key int64) ([]lookupRow, error) {
	var out []lookupRow
	err := s.query(lookupSQL, []any{key}, nil, func(r *sql.Rows) error {
		var row lookupRow
		if err := r.Scan(&row.qty, &row.purpose); err != nil {
			return err
		}
		out = append(out, row)
		return nil
	})
	return out, err
}

func (s *sqlSurface) totals() (int64, int64, error) {
	var c, sum int64
	rows := 0
	err := s.query(totalsSQL, nil, nil, func(r *sql.Rows) error {
		rows++
		return r.Scan(&c, &sum)
	})
	if err == nil && rows != 1 {
		err = fmt.Errorf("totals: %d rows", rows)
	}
	return c, sum, err
}

func (s *sqlSurface) checkpoint() (int64, error) { return s.exec("CHECKPOINT") }

// emitDriver sets the driver.* metrics from the timed counters.
func (s *sqlSurface) emitDriver(o *outcome) {
	if s.querN > 0 {
		o.metrics["driver.query_ms_per_op"] = ms(s.queryT) / float64(s.querN)
	}
	if s.scanN > 0 {
		o.metrics["driver.scan_us_per_row"] = float64(s.scanT) / float64(time.Microsecond) / float64(s.scanN)
	}
}
