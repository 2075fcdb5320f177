package csvdec

import "strconv"

// pow10 are the powers of ten a float64 holds exactly: 10^k = 2^k·5^k,
// and 5^22 < 2^53 ≤ 5^23.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseFloat is the FLOAT cell test and parse, for the sniffer and the
// decoder alike: exactly strconv.ParseFloat(s, 64), the same bits and
// the same error, with the fast path tried first.
func parseFloat(s string) (float64, error) {
	if v, ok := fastFloat(s); ok {
		return v, nil
	}
	return strconv.ParseFloat(s, 64)
}

// fastFloat reads a plain decimal, [+-]digits[.digits][(e|E)[+-]digits]
// with at least one mantissa digit, in one pass: its significant digits
// as an integer mantissa m and a decimal exponent k. When m ≤ 2^53 and
// |k| ≤ 22 both m and 10^|k| are exact float64s, so m·10^k (or m/10^-k)
// rounded once is the correctly rounded value strconv returns
// (Clinger's fast path). Anything else is false, for strconv to read;
// the scan gives up as soon as m passes 2^53, so a full-precision cell
// costs strconv little more than its own parse.
//
//blaeu:hot
func fastFloat(s string) (float64, bool) {
	i, neg := 0, false
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	var m uint64
	nd, dp := 0, -1 // mantissa digits read; how many came before the point, -1 until it
	for ; i < len(s); i++ {
		if c := s[i] - '0'; c < 10 {
			if m, nd = m*10+uint64(c), nd+1; m > 1<<53 {
				return 0, false // no exact float64 mantissa: strconv's
			}
		} else if s[i] == '.' && dp < 0 {
			dp = nd
		} else {
			break
		}
	}
	if nd == 0 {
		return 0, false
	}
	if dp < 0 {
		dp = nd
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		eneg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			eneg = s[i] == '-'
			i++
		}
		e, start := 0, i
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			if e < 10000 { // far past the range; only keeps e from overflowing
				e = e*10 + int(s[i]-'0')
			}
		}
		if i == start {
			return 0, false
		}
		if eneg {
			e = -e
		}
		dp += e
	}
	k := dp - nd
	if i != len(s) || k < -22 || k > 22 {
		return 0, false
	}
	f := float64(m)
	if neg {
		f = -f
	}
	if k < 0 {
		return f / pow10[-k], true
	}
	return f * pow10[k], true
}
