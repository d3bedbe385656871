package main

import (
	"context"
	"database/sql"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/oracle"
	"github.com/ghostdb/ghostdb/internal/value"
)

// tinyOpts runs a workload at a tiny size, so the whole suite stays in
// seconds.
func tinyOpts(t *testing.T, traced bool) opts {
	return opts{seed: 7, duration: 400 * time.Millisecond, traced: traced, scale: 2000, setups: 2, workdir: t.TempDir(), log: testWriter{t}}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) { w.t.Log(string(p)); return len(p), nil }

// TestWorkloadsRun runs every workload to its end, untraced and traced,
// and checks that every answer was right and every metric is reported.
func TestWorkloadsRun(t *testing.T) {
	for name, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := w.run(tinyOpts(t, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !out.correct || out.failed != 0 || out.attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d (%s)", name, traced, out.correct, out.failed, out.attempted, out.firstWrong)
			}
			res := out.result(traced)
			metrics := res["metrics"].(map[string]metric)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(metrics) != len(defs) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", name, traced, len(metrics), len(defs))
			}
			if !traced {
				for _, d := range endToEnd {
					if metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestLookupCheckFails hands the lookup check altered answers.
func TestLookupCheckFails(t *testing.T) {
	m := newModel(generate(300, 1))
	key := int64(17)
	qty, purpose := m.expect(key)
	good := []lookupRow{{qty, purpose}}
	o := newOutcome()
	checkLookup(o, m, key, good)
	if !o.correct {
		t.Fatalf("right answer rejected: %s", o.firstWrong)
	}
	for _, bad := range [][]lookupRow{
		{{qty + 1, purpose}},
		{{qty, purpose + "x"}},
		nil,
		{{qty, purpose}, {qty, purpose}},
	} {
		o := newOutcome()
		checkLookup(o, m, key, bad)
		if o.correct {
			t.Errorf("altered answer %v accepted", bad)
		}
	}
}

// TestTotalsCheckFails hands the post-CHECKPOINT check altered totals.
func TestTotalsCheckFails(t *testing.T) {
	m := newModel(generate(300, 1))
	o := newOutcome()
	checkTotals(o, m, int64(m.liveN), m.sumQty)
	if !o.correct {
		t.Fatal("right totals rejected")
	}
	for _, bad := range [][2]int64{{int64(m.liveN) + 1, m.sumQty}, {int64(m.liveN), m.sumQty - 1}} {
		o := newOutcome()
		checkTotals(o, m, bad[0], bad[1])
		if o.correct {
			t.Errorf("altered totals %v accepted", bad)
		}
	}
}

// alteringSurface answers one statement wrongly.
type alteringSurface struct {
	surface
	calls, alterAt int
}

func (a *alteringSurface) exec(text string, args ...any) (int64, error) {
	n, err := a.surface.exec(text, args...)
	a.calls++
	if a.calls == a.alterAt {
		n++
	}
	return n, err
}

func (a *alteringSurface) totals() (int64, int64, error) {
	n, s, err := a.surface.totals()
	return n, s + int64(a.alterAt), err
}

// TestWriteChecksFail runs write units and a CHECKPOINT on a real
// engine, once as is and then with one altered answer each.
func TestWriteChecksFail(t *testing.T) {
	for _, alter := range []int{0, 2} {
		ds := generate(2000, 3)
		m := newModel(ds)
		ddl, inserts := loadStatements(ds, rowsPerInsert)
		e, _, err := sqlSetup("", ddl, inserts, func(s *sqlSurface) error { _, _, err := s.totals(); return err })
		if err != nil {
			t.Fatal(err)
		}
		o := newOutcome()
		d := &dmlRunner{s: &alteringSurface{surface: e.s, alterAt: alter}, m: m, o: o}
		rng := rand.New(rand.NewSource(1))
		if err := d.writeProbe(rng, 6, 2); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := d.lookup(m.pickLive(rng)); err != nil {
				t.Fatal(err)
			}
		}
		e.close()
		if alter == 0 && !o.correct {
			t.Fatalf("right answers rejected: %s", o.firstWrong)
		}
		if alter != 0 && (o.correct || o.wrong < 3) {
			t.Fatalf("altered answers accepted: %d caught", o.wrong)
		}
	}
}

// TestReportChecksFail runs one report pass on a real engine, checks
// each answer, then alters one value (or adds a row to an empty
// answer) and expects the check to fail.
func TestReportChecksFail(t *testing.T) {
	ds := generate(3000, 5)
	sch, err := buildSchema(ds.DDL)
	if err != nil {
		t.Fatal(err)
	}
	cols := map[string][][]value.Value{}
	for _, name := range ds.TableNames() {
		cols[name] = ds.Table(name).Cols
	}
	orc, err := oracle.New(sch, cols)
	if err != nil {
		t.Fatal(err)
	}
	draws := reportDraws(ds, rand.New(rand.NewSource(2)))
	pass, err := expectPass(orc, draws[len(draws)-1])
	if err != nil {
		t.Fatal(err)
	}
	ddl, inserts := loadStatements(ds, rowsPerInsert)
	db, err := sql.Open("ghostdb", "")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	for _, s := range append(ddl, inserts...) {
		if _, err := db.ExecContext(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	rename := aliases("T").Replace
	for i := range pass {
		st := &pass[i]
		rows, err := db.QueryContext(ctx, rename(st.tmpl))
		if err != nil {
			t.Fatal(err)
		}
		labels, _ := rows.Columns()
		var got [][]any
		for rows.Next() {
			vals := make([]any, len(labels))
			ptrs := make([]any, len(labels))
			for j := range vals {
				ptrs[j] = &vals[j]
			}
			if err := rows.Scan(ptrs...); err != nil {
				t.Fatal(err)
			}
			got = append(got, vals)
		}
		rows.Close()
		fold := func(rs [][]any) *answer {
			a := &answer{cols: labels}
			for _, r := range rs {
				a.addRow(r, &st.expect)
			}
			return a
		}
		if err := st.expect.check(fold(got)); err != nil {
			t.Fatalf("%s: right answer rejected: %v", st.tmpl, err)
		}
		var bad [][]any
		if len(got) == 0 {
			row := make([]any, len(labels))
			for j := range row {
				row[j] = int64(1)
			}
			bad = [][]any{row}
		} else {
			bad = append([][]any(nil), got...)
			row := append([]any(nil), got[len(got)-1]...)
			row[0] = alterValue(row[0])
			bad[len(bad)-1] = row
		}
		if err := st.expect.check(fold(bad)); err == nil {
			t.Errorf("%s: altered answer accepted", st.tmpl)
		}
		if len(got) > 1 && st.expect.orderCol >= 0 {
			swapped := append([][]any(nil), got...)
			swapped[0], swapped[len(swapped)-1] = swapped[len(swapped)-1], swapped[0]
			if compareAny(got[0][st.expect.orderCol], got[len(got)-1][st.expect.orderCol]) != 0 {
				if err := st.expect.check(fold(swapped)); err == nil {
					t.Errorf("%s: answer out of order accepted", st.tmpl)
				}
			}
		}
	}
}

func alterValue(v any) any {
	switch v := v.(type) {
	case int64:
		return v + 1
	case float64:
		return v + 1
	case string:
		return v + "x"
	case time.Time:
		return v.AddDate(0, 0, 1)
	}
	return "altered"
}

// TestTopKTies accepts either row tied at a LIMIT cut and rejects a row
// outside the top.
func TestTopKTies(t *testing.T) {
	e := expectation{cols: []string{"c", "n"}, orderCol: 1, desc: true, limit: 1,
		full: []string{"sSpain\x1fi5", "sItaly\x1fi5", "sMalta\x1fi3"}, keys: []string{"i5"}}
	fold := func(rows ...[]any) *answer {
		a := &answer{cols: e.cols}
		for _, r := range rows {
			a.addRow(r, &e)
		}
		return a
	}
	for _, ok := range [][]any{{"Spain", int64(5)}, {"Italy", int64(5)}} {
		if err := e.check(fold(ok)); err != nil {
			t.Errorf("tied row %v rejected: %v", ok, err)
		}
	}
	for _, bad := range [][]any{{"Malta", int64(3)}, {"France", int64(5)}} {
		if err := e.check(fold(bad)); err == nil {
			t.Errorf("row %v accepted", bad)
		}
	}
}

// TestQuartilesMatchPython checks the quartiles against values from
// Python's statistics.quantiles(range(1, 11), n=4) and of [1, 2, 4].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists equal to the
// ones the program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark")
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
}

// TestWindowedIgnoresSlowMinority shows why the latency figures are
// medians over windows: one window in three slowed fourfold moves the
// pooled p90 but neither windowed figure.
func TestWindowedIgnoresSlowMinority(t *testing.T) {
	window := func(scale time.Duration) samplesList {
		var w samplesList
		for i := 1; i <= 100; i++ {
			w = append(w, scale*time.Duration(i)*time.Microsecond)
		}
		return w
	}
	ws := []samplesList{window(1), window(4), window(1)}
	o := newOutcome()
	o.setWindowed("read", ws)
	if got := o.metrics["read_p50_ms"]; got != 0.05 {
		t.Errorf("windowed p50 = %v ms, want 0.05", got)
	}
	if got := o.metrics["read_p90_ms"]; got != 0.09 {
		t.Errorf("windowed p90 = %v ms, want 0.09", got)
	}
	var pooled samplesList
	for _, w := range ws {
		pooled = append(pooled, w...)
	}
	if got := pooled.quantile(0.9); got <= 0.09 {
		t.Errorf("pooled p90 = %v ms, want it moved above 0.09", got)
	}
	if o.samples["read"] != 300 || o.samples["read_windows"] != 3 {
		t.Errorf("samples = %v", o.samples)
	}
}
