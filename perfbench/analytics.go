package main

// analytics: one database/sql connection to the paper's single
// unsharded simulated smart USB device, loaded through Exec. The client
// repeats one report — the Section 4 demo query with its Vis.Date
// cutoff drawn from the E3 selectivity sweep, the deep two-hop query
// with a drawn country, and six aggregate shapes with drawn thresholds —
// all sent as literal SQL. Every answer is checked against
// internal/oracle, evaluated before the timed phase.

import (
	"database/sql"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/oracle"
	"github.com/ghostdb/ghostdb/internal/value"
)

const (
	// reportVariants is the size of the seeded pool of report passes,
	// one per E3 selectivity point. Every round runs the whole pool in a
	// fresh seeded order, so every round costs the same.
	reportVariants = 8
	replayReports  = 2
)

// e3Selectivities are experiment E3's visible-selectivity points.
var e3Selectivities = []float64{0.001, 0.01, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80}

// statement is one report query, with its table aliases left as
// {P}, {V}, {M} and {D}, and what the oracle says it returns.
type statement struct {
	tmpl   string
	expect expectation
}

// aliases renames the table aliases for one round. Each round's texts
// are new to the plan cache, as an ad-hoc report tool's are, so the
// statements compile through cache misses; the answers do not depend
// on the aliases, so the oracle evaluates each pass once.
func aliases(round string) *strings.Replacer {
	return strings.NewReplacer("{P}", "Pre"+round, "{V}", "Vis"+round, "{M}", "Med"+round, "{D}", "Doc"+round)
}

// expectation is an oracle answer reduced to what the check needs:
// the column labels, and either a multiset digest of the rows or, for a
// query with a LIMIT, the oracle's whole ordered answer without it.
type expectation struct {
	cols   []string
	rows   int
	digest uint64
	// orderCol is the output column the query orders by (-1: none).
	orderCol int
	desc     bool
	// limit > 0 marks a top-K query; full then holds the oracle's
	// answer without the LIMIT, in order, and keys its first limit
	// order-column values.
	limit int
	full  []string
	keys  []string
}

// reportDraws draws the literals of the reportVariants report passes.
// Every literal is drawn stratified: its range is cut into one stratum
// per pass, each pass draws inside its own stratum, and the strata are
// dealt to the passes in a seeded order. The pools of different seeds
// then cover each range alike and cost alike, while no two seeds send
// the same texts.
func reportDraws(ds *datagen.Dataset, rng *rand.Rand) [][]string {
	n := reportVariants
	ints := func(lo, hi int) []int {
		out := make([]int, n)
		for i, s := range rng.Perm(n) {
			out[i] = lo + int((float64(s)+rng.Float64())*float64(hi-lo+1)/float64(n))
		}
		return out
	}
	// Countries are ranked by how many doctors they have, so that each
	// stratum holds countries of like frequency.
	docs := map[string]int{}
	for _, v := range ds.Table("Doctor").Col("Country") {
		docs[v.Str()]++
	}
	var countries []string
	for c := range docs {
		countries = append(countries, c)
	}
	sort.Slice(countries, func(i, j int) bool {
		a, b := countries[i], countries[j]
		return docs[a] > docs[b] || (docs[a] == docs[b] && a < b)
	})
	scale := ds.Table("Prescription").N
	sels := rng.Perm(len(e3Selectivities))
	country := ints(0, len(countries)-1)
	visCut := ints(50, 950)
	count, sum, having, minGroup := ints(1, 100), ints(10, 100), ints(1, 50), ints(1, 20)
	freq, statsQty, zip := ints(1, 4), ints(20, 100), ints(10000, 89999)
	passes := make([][]string, n)
	for i := range passes {
		cutoff := datagen.DateCutoff(e3Selectivities[sels[i%len(sels)]]).SQL()
		visCutoff := datagen.DateCutoff(float64(visCut[i]) / 1000).SQL()
		passes[i] = []string{
			`SELECT {M}.Name, {P}.Quantity, {V}.Date FROM Medicine {M}, Prescription {P}, Visit {V} WHERE {V}.Date > ` + cutoff +
				` AND {V}.Purpose = 'Sclerosis' AND {M}.Type = 'Antibiotic' AND {M}.MedID = {P}.MedID AND {V}.VisID = {P}.VisID`,
			`SELECT {P}.PreID FROM Prescription {P}, Visit {V}, Doctor {D} WHERE {D}.Country = '` + countries[country[i]] + `' AND {V}.Purpose = 'Sclerosis'`,
			fmt.Sprintf(`SELECT COUNT(*) FROM Prescription {P} WHERE {P}.Quantity >= %d`, count[i]),
			`SELECT {V}.Purpose, COUNT(*) FROM Visit {V} WHERE {V}.Date > ` + visCutoff + ` GROUP BY {V}.Purpose`,
			fmt.Sprintf(`SELECT {M}.Type, SUM({P}.Quantity) FROM Medicine {M}, Prescription {P} WHERE {P}.Quantity <= %d GROUP BY {M}.Type ORDER BY SUM({P}.Quantity) DESC`, sum[i]),
			fmt.Sprintf(`SELECT {D}.Country, COUNT(*) FROM Doctor {D}, Visit {V}, Prescription {P} WHERE {P}.Quantity >= %d GROUP BY {D}.Country HAVING COUNT(*) > %d ORDER BY COUNT(*) DESC LIMIT 5`, having[i], max(1, scale/2000)*minGroup[i]),
			fmt.Sprintf(`SELECT MIN({P}.Quantity), MAX({P}.Quantity), AVG({P}.Quantity) FROM Prescription {P} WHERE {P}.Frequency >= %d AND {P}.Quantity <= %d`, freq[i], statsQty[i]),
			fmt.Sprintf(`SELECT DISTINCT {D}.Speciality FROM Doctor {D} WHERE {D}.Zip >= %d ORDER BY {D}.Speciality`, zip[i]),
		}
	}
	return passes
}

// orderSpec says how each report shape orders its output: column,
// direction and LIMIT, by shape index.
var orderSpec = []struct {
	col   int
	desc  bool
	limit int
}{
	{-1, false, 0}, {-1, false, 0}, {-1, false, 0}, {-1, false, 0},
	{1, true, 0}, {1, true, 5}, {-1, false, 0}, {0, false, 0},
}

// expectReport evaluates every statement of every pass on the oracle,
// with one oracle per worker.
func expectReport(oracles []*oracle.Oracle, passes [][]string) ([][]statement, error) {
	out := make([][]statement, len(passes))
	errs := make([]error, len(oracles))
	var wg sync.WaitGroup
	for w, orc := range oracles {
		wg.Add(1)
		go func(w int, orc *oracle.Oracle) {
			defer wg.Done()
			for i := w; i < len(passes); i += len(oracles) {
				if out[i], errs[w] = expectPass(orc, passes[i]); errs[w] != nil {
					return
				}
			}
		}(w, orc)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func expectPass(orc *oracle.Oracle, pass []string) ([]statement, error) {
	out := make([]statement, len(pass))
	for j, tmpl := range pass {
		spec := orderSpec[j]
		query := aliases("").Replace(tmpl)
		if spec.limit > 0 {
			query = strings.TrimSuffix(query, fmt.Sprintf(" LIMIT %d", spec.limit))
		}
		cols, rows, err := orc.Query(query)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", query, err)
		}
		e := expectation{cols: cols, orderCol: spec.col, desc: spec.desc, limit: spec.limit}
		for _, r := range rows {
			enc := encodeOracleRow(r)
			if spec.limit > 0 {
				e.full = append(e.full, enc)
				if len(e.keys) < spec.limit {
					e.keys = append(e.keys, encodeOracleValue(r[spec.col]))
				}
				continue
			}
			e.rows++
			e.digest += rowHash(enc)
		}
		out[j] = statement{tmpl: tmpl, expect: e}
	}
	return out, nil
}

// rowHash hashes one encoded row; a multiset digest is the sum of its
// rows' hashes, so it does not depend on row order.
func rowHash(enc string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(enc))
	return h.Sum64()
}

func encodeOracleValue(v value.Value) string {
	switch v.Kind() {
	case value.Int:
		return "i" + strconv.FormatInt(v.Int(), 10)
	case value.Float:
		return "f" + strconv.FormatFloat(v.Float(), 'g', 10, 64)
	case value.String:
		return "s" + v.Str()
	case value.Date:
		y, m, d := v.Civil()
		return fmt.Sprintf("d%04d-%02d-%02d", y, m, d)
	case value.Bool:
		return "b" + strconv.FormatBool(v.Bool())
	}
	return "?" + v.String()
}

func encodeOracleRow(r []value.Value) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = encodeOracleValue(v)
	}
	return strings.Join(parts, "\x1f")
}

// encodeDriverValue encodes a value scanned from database/sql the way
// encodeOracleValue encodes the oracle's.
func encodeDriverValue(v any) string {
	switch v := v.(type) {
	case int64:
		return "i" + strconv.FormatInt(v, 10)
	case float64:
		return "f" + strconv.FormatFloat(v, 'g', 10, 64)
	case string:
		return "s" + v
	case time.Time:
		return "d" + v.Format("2006-01-02")
	case bool:
		return "b" + strconv.FormatBool(v)
	}
	return fmt.Sprintf("?%v", v)
}

// answer is the engine's answer to one statement, reduced as the check
// needs it.
type answer struct {
	cols   []string
	rows   int
	digest uint64
	// keys are the encoded order-column values, in answer order, for
	// ordered queries; top holds the encoded rows of a LIMIT query.
	keys []string
	top  []string
	// sortErr records the first pair of rows out of order.
	sortErr string
	prev    any
}

// addRow folds one scanned row into the answer.
func (a *answer) addRow(vals []any, e *expectation) {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = encodeDriverValue(v)
	}
	enc := strings.Join(parts, "\x1f")
	a.rows++
	if e.limit > 0 {
		a.top = append(a.top, enc)
	} else {
		a.digest += rowHash(enc)
	}
	if e.orderCol < 0 {
		return
	}
	key := vals[e.orderCol]
	if e.limit > 0 {
		a.keys = append(a.keys, parts[e.orderCol])
	}
	if a.rows > 1 && a.sortErr == "" {
		c := compareAny(a.prev, key)
		if (e.desc && c < 0) || (!e.desc && c > 0) {
			a.sortErr = fmt.Sprintf("row %d: %v after %v", a.rows, key, a.prev)
		}
	}
	a.prev = key
}

// check compares an answer with the oracle's expectation: equal
// multisets, rows in order when the query orders them, and for a LIMIT
// query a top-K whose order keys are the oracle's and whose rows are
// all in the oracle's answer, so any order of ties at the cut passes.
func (e *expectation) check(a *answer) error {
	if strings.Join(a.cols, ",") != strings.Join(e.cols, ",") {
		return fmt.Errorf("columns %v, want %v", a.cols, e.cols)
	}
	if a.sortErr != "" {
		return fmt.Errorf("not in ORDER BY order: %s", a.sortErr)
	}
	if e.limit == 0 {
		if a.rows != e.rows || a.digest != e.digest {
			return fmt.Errorf("%d rows (digest %x), want %d rows (digest %x)", a.rows, a.digest, e.rows, e.digest)
		}
		return nil
	}
	if strings.Join(a.keys, ",") != strings.Join(e.keys, ",") {
		return fmt.Errorf("top-%d order keys %v, want %v", e.limit, a.keys, e.keys)
	}
	pool := map[string]int{}
	for _, r := range e.full {
		pool[r]++
	}
	for _, r := range a.top {
		if pool[r] == 0 {
			return fmt.Errorf("row %q is not in the oracle's answer", r)
		}
		pool[r]--
	}
	return nil
}

// compareAny orders two scanned values of the same type.
func compareAny(a, b any) int {
	switch a := a.(type) {
	case int64:
		if b, ok := b.(int64); ok {
			return cmp3(a < b, a > b)
		}
	case float64:
		if b, ok := b.(float64); ok {
			return cmp3(a < b, a > b)
		}
	case string:
		if b, ok := b.(string); ok {
			return strings.Compare(a, b)
		}
	case time.Time:
		if b, ok := b.(time.Time); ok {
			return a.Compare(b)
		}
	}
	return 0
}

func cmp3(lt, gt bool) int {
	switch {
	case lt:
		return -1
	case gt:
		return 1
	}
	return 0
}

// runStatement sends one statement and folds its answer.
func runStatement(s *sqlSurface, text string, st *statement) (*answer, error) {
	a := &answer{}
	var vals []any
	var ptrs []any
	err := s.query(text, nil, func(r *sql.Rows) error {
		cols, err := r.Columns()
		if err != nil {
			return err
		}
		a.cols = cols
		vals = make([]any, len(cols))
		ptrs = make([]any, len(cols))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		return nil
	}, func(r *sql.Rows) error {
		if err := r.Scan(ptrs...); err != nil {
			return err
		}
		a.addRow(vals, &st.expect)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

func runAnalytics(o opts) (*outcome, error) {
	out := newOutcome()
	ds := generate(o.scale, o.seed)
	m := newModel(ds)
	ddl, inserts := loadStatements(ds, rowsPerInsert)
	out.sizes["prescriptions"] = ds.Table("Prescription").N
	out.sizes["visits"] = ds.Table("Visit").N
	out.sizes["report_variants"] = reportVariants
	out.sizes["statements_per_report"] = len(orderSpec)

	rng := rand.New(rand.NewSource(o.seed))
	sch, err := buildSchema(ds.DDL)
	if err != nil {
		return nil, err
	}
	cols := map[string][][]value.Value{}
	for _, name := range ds.TableNames() {
		cols[name] = ds.Table(name).Cols
	}
	oracles := make([]*oracle.Oracle, 2)
	for i := range oracles {
		if oracles[i], err = oracle.New(sch, cols); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	passes, err := expectReport(oracles, reportDraws(ds, rng))
	if err != nil {
		return nil, err
	}
	o.logf("analytics: oracle answers for %d passes in %v", len(passes), time.Since(t0).Round(time.Millisecond))
	oracles, cols, ds = nil, nil, nil

	e, err := setupMany(o, out, func(int) (*sqlEngine, time.Duration, error) {
		return sqlSetup("", ddl, inserts, func(s *sqlSurface) error {
			return runPass(s, aliases("").Replace, passes[0][:1], out)
		})
	})
	if err != nil {
		return nil, err
	}
	defer e.close()
	ddl, inserts = nil, nil

	// Rounds: the whole pool in a fresh seeded order, under fresh aliases.
	order := rand.New(rand.NewSource(o.seed + 1))
	var round []int
	var rename func(string) string
	rounds := 0
	next := func() []statement {
		if len(round) == 0 {
			rounds++
			round = order.Perm(len(passes))
			rename = aliases(strconv.Itoa(rounds)).Replace
		}
		p := passes[round[0]]
		round = round[1:]
		return p
	}
	// Warm-up: one whole round.
	for i := 0; i < reportVariants; i++ {
		p := next()
		if err := runPass(e.s, rename, p, out); err != nil {
			return nil, err
		}
	}

	sess, err := e.s.session()
	if err != nil {
		return nil, err
	}
	st0 := sess.Stats()
	cache0 := e.core.PlanCacheStats()
	events0 := e.core.Recorder().Len()
	var host *hostMeter
	if o.traced {
		e.s.timed = true
		host = startHost()
	}
	// A read is one round: the report over the whole pool of passes,
	// the same work in every round. Passes of different selectivities
	// differ in cost, so a quantile over passes would fall between them.
	var roundTimes samplesList
	var rates []float64
	var stmts, roundStmts int64
	var replay []string
	runtime.GC()
	start := time.Now()
	deadline := start.Add(o.duration)
	roundStart := start
	// The timed phase runs whole rounds, so every run sends the same mix.
	for len(round) != 0 || time.Now().Before(deadline) {
		p := next()
		if len(replay) < replayReports*len(p) {
			for _, st := range p {
				replay = append(replay, st.tmpl)
			}
		}
		if err := runPass(e.s, rename, p, out); err != nil {
			return nil, err
		}
		stmts += int64(len(p))
		roundStmts += int64(len(p))
		if len(round) == 0 {
			now := time.Now()
			roundTimes = append(roundTimes, now.Sub(roundStart))
			rates = append(rates, float64(roundStmts)/now.Sub(roundStart).Seconds())
			roundStart, roundStmts = now, 0
		}
	}
	out.attempted = stmts
	st := sess.Stats()
	if o.traced {
		e.s.timed = false
		host.finish(out, stmts)
		e.s.emitDriver(out)
		cache := e.core.PlanCacheStats()
		out.metrics["plancache.hit_ratio"] = hitRatio(cache.Hits-cache0.Hits, cache.Misses-cache0.Misses)
		out.metrics["trace.events_per_op"] = float64(e.core.Recorder().Len()-events0) / float64(stmts)
	}
	out.metrics["ops_per_s"] = median(rates)
	out.setQuantiles("read", roundTimes)
	out.metrics["sim_ms_per_read"] = ms(st.DeviceTime-st0.DeviceTime) / float64(max(st.Queries-st0.Queries, 1))
	out.metrics["live_heap_mb"] = heapMB()

	if o.traced {
		// The replay renames the aliases once more, so its compiles miss
		// the plan cache as the workload's do.
		rename := aliases("R").Replace
		calls := make([]call, len(replay))
		for i, t := range replay {
			calls[i] = call{sql: rename(t)}
		}
		if err := replayOn(e.core, calls, out); err != nil {
			return nil, err
		}
	}

	d := &dmlRunner{s: e.s, m: m, o: out}
	if o.traced {
		d.cp, d.db = &checkpointAgg{}, e.core
	}
	if err := d.writeProbe(rng, probeUnits, probeCheckpoints); err != nil {
		return nil, err
	}
	out.attempted += d.ops
	d.emitWrites()
	if o.traced {
		d.cp.emit(out)
	}
	out.metrics["device_mb"] = float64(e.core.Storage().Total) / (1 << 20)
	return out, nil
}

// runPass runs the statements of one report pass, with their aliases
// renamed by rename, and checks each answer.
func runPass(s *sqlSurface, rename func(string) string, pass []statement, out *outcome) error {
	for i := range pass {
		text := rename(pass[i].tmpl)
		a, err := runStatement(s, text, &pass[i])
		if err != nil {
			return err
		}
		if err := pass[i].expect.check(a); err != nil {
			out.fail("%s: %v", text, err)
		}
	}
	return nil
}
