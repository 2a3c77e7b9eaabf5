// Portfolio: investment planning, one of the application domains the
// paper's introduction motivates, on the paq SDK. Build a bond portfolio
// of exactly 12 positions within a budget, with average risk capped, at
// least four investment-grade positions (a conditional count, expressed
// with the sub-query form), and total duration bounded — maximizing
// yield.
//
// The example demonstrates REPEAT 1 (a bond can be bought twice) and
// compares DIRECT with SKETCHREFINE.
//
// Run with: go run ./examples/portfolio
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/relation"
	"repro/paq"
)

const query = `
SELECT PACKAGE(B) AS P
FROM bonds B REPEAT 1
SUCH THAT COUNT(P.*) = 12 AND
          SUM(P.price) <= 10000 AND
          AVG(P.risk) <= 0.35 AND
          (SELECT COUNT(*) FROM P WHERE rating >= 4) >= 4 AND
          SUM(P.duration) BETWEEN 48 AND 96
MAXIMIZE SUM(P.yield)`

func main() {
	bonds := generateBonds(20000, 3)
	ctx := context.Background()
	opts := []paq.Option{
		paq.WithTimeLimit(30 * time.Second),
		paq.WithNodeLimit(100000),
	}

	type outcome struct {
		name string
		res  *paq.Result
	}
	var outcomes []outcome
	run := func(name string, extra ...paq.Option) *paq.Result {
		sess, err := paq.Open(paq.Table(bonds), append(append([]paq.Option{}, opts...), extra...)...)
		if err != nil {
			log.Fatal(name, ": ", err)
		}
		stmt, err := sess.Prepare(query)
		if err != nil {
			log.Fatal(name, ": ", err)
		}
		res, err := stmt.Execute(ctx)
		if err != nil {
			log.Fatal(name, ": ", err)
		}
		outcomes = append(outcomes, outcome{name: name, res: res})
		return res
	}
	run("DIRECT", paq.WithMethod(paq.MethodDirect))
	sketched := run("SKETCHREFINE",
		paq.WithMethod(paq.MethodSketchRefine),
		paq.WithPartitionAttrs("price", "risk", "duration", "yield"),
	)

	for _, m := range outcomes {
		price, _ := relation.WeightedAggregate(bonds, relation.Sum, "price", m.res.Rows, m.res.Mult)
		risk, _ := relation.WeightedAggregate(bonds, relation.Avg, "risk", m.res.Rows, m.res.Mult)
		fmt.Printf("%-12s %2d positions, cost %8.0f, avg risk %.3f, yield %7.2f  (%v)\n",
			m.name, m.res.Size, price, risk, m.res.Objective, m.res.Time.Round(time.Millisecond))
	}

	fmt.Println("\nSketchRefine portfolio:")
	for k, row := range sketched.Rows {
		fmt.Printf("  %d× bond-%05d price %6.0f yield %5.2f risk %.2f rating %d duration %4.1fy\n",
			sketched.Mult[k], row,
			bonds.Float(row, 0), bonds.Float(row, 1), bonds.Float(row, 2),
			bonds.IntColumn(3)[row], bonds.Float(row, 4))
	}
}

// generateBonds synthesizes a bond universe: price, yield (correlated
// with risk), risk, rating (5 = AAA-ish), and duration.
func generateBonds(n int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	bonds := relation.New("bonds", mustSchema(
		relation.Column{Name: "price", Type: relation.Float},
		relation.Column{Name: "yield", Type: relation.Float},
		relation.Column{Name: "risk", Type: relation.Float},
		relation.Column{Name: "rating", Type: relation.Int},
		relation.Column{Name: "duration", Type: relation.Float},
	))
	for i := 0; i < n; i++ {
		risk := rng.Float64() * 0.8
		yield := 1.5 + risk*8 + rng.NormFloat64()*0.7 // risk premium + noise
		if yield < 0.1 {
			yield = 0.1
		}
		rating := 5 - int(risk*5) - rng.Intn(2)
		if rating < 1 {
			rating = 1
		}
		mustAppend(bonds,
			relation.F(200+rng.Float64()*1800),
			relation.F(yield),
			relation.F(risk),
			relation.I(int64(rating)),
			relation.F(1+rng.Float64()*11),
		)
	}
	return bonds
}

// mustSchema and mustAppend build the example's constant table; an
// error here is a broken example, so panicking is fine in main.
func mustSchema(cols ...relation.Column) relation.Schema {
	s, err := relation.NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

func mustAppend(r *relation.Relation, vals ...relation.Value) {
	if err := r.Append(vals...); err != nil {
		panic(err)
	}
}
