package relation

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// decimalSeeds are the fields at the edges of the fast paths: signs, a
// lone point, an exponent, underscores, the empty field, leading zeros,
// 15 to 19 significant digits, all-fraction digits, the first integer a
// float64 cannot hold, and the cells three-decimal data writes at every
// magnitude.
func decimalSeeds() []string {
	seeds := []string{
		"-0", "0", "0.000", "-0.000", ".5", "-.5", "5.", ".", "-", "-.", "+1", "1e5", "1E5", "1_0", "",
		" 1", "1 ", "0x10", "Inf", "-inf", "NaN", "1..2", "1.2.3", "--1", "1-",
		"007.250", "123456789012345", "1234567890123456", "12345678901234567",
		"1234567890123456789", "12345678901234567890", "922337203685477580", "9223372036854775807",
		"-9223372036854775808", "9223372036854775808", ".123456789012345", "0.123456789012345",
		".1234567890123456", "0.000000000000000001", "0.0000000000000000001", "9007199254740993",
		"99999999999999.9", "999999999999999.9", "1797693134862315708145274237317043567981",
	}
	rng := rand.New(rand.NewSource(1))
	for exp := -4; exp <= 22; exp++ {
		for k := 0; k < 4; k++ {
			v := math.Round(rng.Float64()*math.Pow10(exp)*1000) / 1000
			if k%2 == 1 {
				v = -v
			}
			seeds = append(seeds, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	return seeds
}

// decodeAs decodes field into c as a loader would: alone, as ReadCSV
// hands it over, when line is the field; else leading line, as the range
// decode reads it, where the fast path must take the field whole or not
// at all.
func decodeAs(t *testing.T, c *column, field, line string) error {
	if line != field {
		if n := c.appendLeading(line); n >= 0 {
			if n != len(field) {
				t.Fatalf("%v %q: the fast path took %d bytes of the field %q", c.typ, line, n, field)
			}
			return nil
		}
	}
	return c.appendField(field)
}

// FuzzParseDecimal holds the numeric fast paths to strconv, the oracle
// the loaders' own differential cannot be (both loaders decode every
// cell through the same fast paths): a DOUBLE field must decode to
// ParseFloat's bits and a BIGINT field to ParseInt's value, with an
// error on both sides or on neither, whether the field stands alone (as
// ReadCSV hands it over) or leads a line before a ',' (as the range
// decode reads it).
func FuzzParseDecimal(f *testing.F) {
	for _, s := range decimalSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, wantErr := strconv.ParseFloat(s, 64)
		wantInt, wantIntErr := strconv.ParseInt(s, 10, 64)
		for _, typ := range []Type{Float, Int} {
			lines := []string{s}
			if !strings.Contains(s, ",") {
				lines = append(lines, s+",", s+",x")
			}
			for _, line := range lines {
				c := column{typ: typ}
				err := decodeAs(t, &c, s, line)
				var diff string
				switch {
				case typ == Float && (err != nil) != (wantErr != nil):
					diff = fmt.Sprintf("error %v, ParseFloat error %v", err, wantErr)
				case typ == Int && (err != nil) != (wantIntErr != nil):
					diff = fmt.Sprintf("error %v, ParseInt error %v", err, wantIntErr)
				case err != nil:
				case typ == Float && math.Float64bits(c.f[0]) != math.Float64bits(want):
					diff = fmt.Sprintf("%v (%#x), ParseFloat %v (%#x)", c.f[0], math.Float64bits(c.f[0]), want, math.Float64bits(want))
				case typ == Int && c.i[0] != wantInt:
					diff = fmt.Sprintf("%d, ParseInt %d", c.i[0], wantInt)
				}
				if diff != "" {
					t.Fatalf("%v %q: %s", typ, line, diff)
				}
			}
		}
	})
}
