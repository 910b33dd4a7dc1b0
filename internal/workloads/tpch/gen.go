package tpch

import (
	"fmt"
	"math/rand"

	"unmasque/internal/sqldb"
	"unmasque/internal/sqlparser"
	"unmasque/internal/xdata"
)

// Scale maps the paper's database volumes onto row counts. Scale 1.0
// corresponds to roughly 1/1000 of TPC-H SF1 (6k lineitem rows); the
// bench harness uses named scales mirroring the paper's instances.
type Scale float64

// Named scales used by the experiment drivers. The labels echo the
// paper's instance sizes; the values are row-scale factors chosen so
// the harness finishes in seconds while preserving relative table
// sizes (lineitem ~80% of the footprint).
const (
	ScaleTiny  Scale = 0.05 // unit tests
	Scale5GB   Scale = 1.0  // Figure 8 analogue
	Scale100GB Scale = 8.0  // Figure 9 analogue
	Scale200GB Scale = 8.0
	Scale400GB Scale = 11.0
	Scale600GB Scale = 14.0
	Scale800GB Scale = 17.0
	Scale1TB   Scale = 20.0
)

// Rows reports the per-table row counts at this scale.
func (s Scale) Rows() map[string]int {
	f := float64(s)
	atLeast := func(n float64, min int) int {
		v := int(n)
		if v < min {
			return min
		}
		return v
	}
	return map[string]int{
		"region":   5,
		"nation":   25,
		"supplier": atLeast(100*f, 10),
		"part":     atLeast(2000*f, 40),
		"partsupp": atLeast(8000*f, 160),
		"customer": atLeast(1500*f, 30),
		"orders":   atLeast(15000*f, 300),
		"lineitem": atLeast(60000*f, 1200),
	}
}

var (
	regionNames  = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames  = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	segments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities   = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"}
	shipModes    = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	shipInstruct = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	containers   = []string{"SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "JUMBO PACK", "WRAP JAR"}
	typePrefixes = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSuffixes = []string{"BRUSHED TIN", "BURNISHED STEEL", "PLATED COPPER", "ANODIZED NICKEL"}
	commentWords = []string{"carefully", "quickly", "special", "requests", "deposits", "pending", "furious", "accounts", "packages", "ironic", "express"}
)

// NewDatabase generates a fresh instance at the given scale,
// deterministic in seed. Witnesses for the hidden-query suites are
// NOT planted here; use PlantWitnesses with the query set a run will
// exercise.
//
// Each table's rows are generated into one slab and loaded with a
// single InsertRows. Values are drawn from the random source in a
// fixed order, table by table and row by row, so a seed always yields
// the same instance; the registry's fingerprint golden test pins
// every instance.
func NewDatabase(scale Scale, seed int64) *sqldb.Database {
	db := sqldb.NewDatabase()
	for _, s := range Schemas() {
		if err := db.CreateTable(s); err != nil {
			panic(err) // static schemas; cannot fail
		}
	}
	rows := scale.Rows()
	rng := rand.New(rand.NewSource(seed))
	i, f, s := sqldb.NewInt, sqldb.NewFloat, sqldb.NewText
	base := days("1992-01-01")
	date := func(spreadDays int) sqldb.Value {
		return sqldb.NewDate(base + int64(rng.Intn(spreadDays)))
	}
	var words []byte
	comment := func(n int) sqldb.Value {
		words = words[:0]
		for k := 0; k < n; k++ {
			if k > 0 {
				words = append(words, ' ')
			}
			words = append(words, commentWords[rng.Intn(len(commentWords))]...)
		}
		return s(string(words))
	}

	region := newSlab(db, "region", rows["region"])
	for r := 0; r < rows["region"]; r++ {
		region.add(i(int64(r+1)), s(regionNames[r%len(regionNames)]), comment(3))
	}
	region.load()
	nation := newSlab(db, "nation", rows["nation"])
	for n := 0; n < rows["nation"]; n++ {
		nation.add(i(int64(n+1)), s(nationNames[n%len(nationNames)]),
			i(int64(1+n%rows["region"])), comment(3))
	}
	nation.load()
	supplier := newSlab(db, "supplier", rows["supplier"])
	for sp := 1; sp <= rows["supplier"]; sp++ {
		supplier.add(
			i(int64(sp)), s(fmt.Sprintf("Supplier#%09d", sp)), s(fmt.Sprintf("addr sup %d", sp)),
			i(int64(1+rng.Intn(rows["nation"]))), s(fmt.Sprintf("%02d-%07d", 10+rng.Intn(25), rng.Intn(9999999))),
			f(float64(rng.Intn(1100000))/100-1000), comment(5))
	}
	supplier.load()
	part := newSlab(db, "part", rows["part"])
	for p := 1; p <= rows["part"]; p++ {
		part.add(
			i(int64(p)), s(fmt.Sprintf("part %s %s %d", commentWords[rng.Intn(6)], commentWords[rng.Intn(6)], p)),
			s(fmt.Sprintf("Manufacturer#%d", 1+rng.Intn(5))), s(fmt.Sprintf("Brand#%d%d", 1+rng.Intn(5), 1+rng.Intn(5))),
			s(typePrefixes[rng.Intn(len(typePrefixes))]+" "+typeSuffixes[rng.Intn(len(typeSuffixes))]),
			i(int64(1+rng.Intn(50))), s(containers[rng.Intn(len(containers))]),
			f(800+float64(rng.Intn(130000))/100), comment(2))
	}
	part.load()
	perPart := rows["partsupp"] / rows["part"]
	partsupp := newSlab(db, "partsupp", rows["part"]*perPart)
	for p := 1; p <= rows["part"]; p++ {
		for k := 0; k < perPart; k++ {
			partsupp.add(
				i(int64(p)), i(int64(1+(p*7+k*13)%rows["supplier"])),
				i(int64(1+rng.Intn(9999))), f(1+float64(rng.Intn(99900))/100), comment(6))
		}
	}
	partsupp.load()
	customer := newSlab(db, "customer", rows["customer"])
	for c := 1; c <= rows["customer"]; c++ {
		customer.add(
			i(int64(c)), s(fmt.Sprintf("Customer#%09d", c)), s(fmt.Sprintf("addr cust %d", c)),
			i(int64(1+rng.Intn(rows["nation"]))), s(fmt.Sprintf("%02d-%07d", 10+rng.Intn(25), rng.Intn(9999999))),
			f(float64(rng.Intn(1100000))/100-1000), s(segments[rng.Intn(len(segments))]), comment(4))
	}
	customer.load()
	statuses := []string{"F", "O", "P"}
	orders := newSlab(db, "orders", rows["orders"])
	for o := 1; o <= rows["orders"]; o++ {
		orders.add(
			i(int64(o)), i(int64(1+rng.Intn(rows["customer"]))),
			s(statuses[rng.Intn(len(statuses))]), f(800+float64(rng.Intn(55000000))/100),
			date(2400), s(priorities[rng.Intn(len(priorities))]),
			s(fmt.Sprintf("Clerk#%09d", rng.Intn(1000))), i(int64(rng.Intn(2))), comment(4))
	}
	orders.load()
	flags := []string{"R", "A", "N"}
	lineStatus := []string{"O", "F"}
	lineitem := newSlab(db, "lineitem", rows["lineitem"])
	for l := 1; l <= rows["lineitem"]; l++ {
		ship := date(2400)
		commit := sqldb.NewDate(ship.I + int64(rng.Intn(60)) - 30)
		receipt := sqldb.NewDate(ship.I + 1 + int64(rng.Intn(30)))
		lineitem.add(
			i(int64(1+rng.Intn(rows["orders"]))), i(int64(1+rng.Intn(rows["part"]))),
			i(int64(1+rng.Intn(rows["supplier"]))), i(int64(1+l%7)),
			f(1+float64(rng.Intn(4900))/100), f(800+float64(rng.Intn(10420000))/100),
			f(float64(rng.Intn(11))/100), f(float64(rng.Intn(9))/100),
			s(flags[rng.Intn(len(flags))]), s(lineStatus[rng.Intn(len(lineStatus))]),
			ship, commit, receipt,
			s(shipInstruct[rng.Intn(len(shipInstruct))]), s(shipModes[rng.Intn(len(shipModes))]), comment(3))
	}
	lineitem.load()
	return db
}

// slab collects one table's generated rows in a single backing array.
type slab struct {
	tbl  *sqldb.Table
	vals []sqldb.Value
	rows []sqldb.Row
}

func newSlab(db *sqldb.Database, table string, n int) *slab {
	tbl, err := db.Table(table)
	if err != nil {
		panic(err) // created by NewDatabase; cannot fail
	}
	width := len(tbl.Schema.Columns)
	return &slab{tbl: tbl, vals: make([]sqldb.Value, 0, n*width), rows: make([]sqldb.Row, 0, n)}
}

// add appends one row. Each row's capacity is capped, so an append to
// a row copies it instead of overwriting its neighbour.
func (s *slab) add(vals ...sqldb.Value) {
	start := len(s.vals)
	s.vals = append(s.vals, vals...)
	s.rows = append(s.rows, s.vals[start:len(s.vals):len(s.vals)])
}

// load inserts the collected rows into the table in one call.
func (s *slab) load() {
	if err := s.tbl.InsertRows(s.rows); err != nil {
		panic(fmt.Sprintf("tpch generator: %v", err))
	}
}

// PlantWitnesses inserts, for each hidden query, a handful of joined
// row chains guaranteed to satisfy all its predicates, so every query
// yields a populated result regardless of scale (the paper's setup
// assumption). Witness keys start high above the generated key space
// to avoid accidental joins.
func PlantWitnesses(db *sqldb.Database, queries map[string]string) error {
	schemas := Schemas()
	const keyBase = 50_000_000
	offset := int64(0)
	for name, sql := range queries {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			return fmt.Errorf("query %s: %w", name, err)
		}
		analysis, err := xdata.Analyze(stmt, schemas)
		if err != nil {
			return fmt.Errorf("query %s: %w", name, err)
		}
		for w := 0; w < 3; w++ {
			if err := analysis.PlantWitness(db, keyBase+offset, w, nil); err != nil {
				return fmt.Errorf("query %s witness %d: %w", name, w, err)
			}
			offset++
		}
	}
	return nil
}
