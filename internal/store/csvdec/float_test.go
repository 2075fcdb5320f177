package csvdec

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkParseFloat holds parseFloat to its one rule: strconv's bits (a
// NaN as a NaN) and strconv's acceptance.
func checkParseFloat(t *testing.T, s string) {
	t.Helper()
	got, err := parseFloat(s)
	want, wantErr := strconv.ParseFloat(s, 64)
	sameBits := math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
	if !sameBits || (err == nil) != (wantErr == nil) {
		t.Fatalf("parseFloat(%q) = %v (%#x), %v; strconv: %v (%#x), %v",
			s, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
	}
}

func FuzzParseFloat(f *testing.F) {
	for _, s := range []string{
		"9007199254740992", "9007199254740993", "-9007199254740992", "9007199254740992e-3",
		"1234567890123456", "12345678901234567", "1234567890123456789", "12345678901234567890",
		"0.1234567890123456789012", "0.12345678901234567890123", "1e22", "1e23", "1e-22", "1e-23",
		"123.456e20", "0.000123e-19", "-0", "-0.0", "0", ".5", "5.", "+.5", "-.5e1", ".", "+", "-",
		"1e", "1e+", "1e-", "e5", "1.2.3", "1e5e5", "0x1p3", "1_0", "Inf", "-inf", "NaN", "infinity",
		"-213.4521", "0.1317", "00012.3400", "1e0000000000000000000000001", "1e99999999999999999999",
		"0e400", "4.9e-324", "1.7976931348623157e308", "1e309", " 1", "1 ", "",
	} {
		f.Add(s)
	}
	f.Fuzz(checkParseFloat)
}

// TestParseFloatMatchesStrconv runs the rule over the cells the ledger
// writes ('f' with a few decimals) and over random digit strings with
// the mantissa lengths and exponents on both sides of the fast path's
// limits.
func TestParseFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	for i := 0; i < 200_000; i++ {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-4))
		checkParseFloat(t, strconv.FormatFloat(v, 'f', rng.Intn(8), 64))
		checkParseFloat(t, strconv.FormatFloat(v, 'g', -1, 64))
		b.Reset()
		b.WriteString([]string{"", "-", "+"}[rng.Intn(3)])
		digits := 1 + rng.Intn(22)
		dot := rng.Intn(digits + 2)
		for d := 0; d < digits; d++ {
			if d == dot {
				b.WriteByte('.')
			}
			b.WriteByte(byte('0' + rng.Intn(10)))
		}
		if rng.Intn(2) == 0 {
			b.WriteString("e" + strconv.Itoa(rng.Intn(61)-30))
		}
		checkParseFloat(t, b.String())
	}
}

// BenchmarkParseFloat times a cell of the ledger's FLOAT columns ('f'
// with 4 decimals) and one of WriteCSV's ('g', full precision), through
// parseFloat and through strconv alone.
func BenchmarkParseFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, format := range []struct {
		name string
		fmt  byte
		prec int
	}{{"f4", 'f', 4}, {"g", 'g', -1}} {
		cells := make([]string, 1024)
		for i := range cells {
			cells[i] = strconv.FormatFloat(rng.NormFloat64()*100, format.fmt, format.prec, 64)
		}
		for _, parser := range []struct {
			name  string
			parse func(string) (float64, error)
		}{{"parseFloat", parseFloat}, {"strconv", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }}} {
			b.Run(format.name+"/"+parser.name, func(b *testing.B) {
				var sum float64
				for i := 0; i < b.N; i++ {
					v, _ := parser.parse(cells[i%len(cells)])
					sum += v
				}
				benchSink = sum
			})
		}
	}
}

var benchSink float64
