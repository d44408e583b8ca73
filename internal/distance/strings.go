package distance

import (
	"strings"
	"unicode"
)

// StringFunc is a distance between two strings.
type StringFunc func(a, b string) float64

// Lexicographic maps each string to a fraction in [0,1) by treating its
// first eight bytes as a base-256 expansion and returns the absolute
// difference, so strings that would sort close together are close. This
// is the "lexicographical difference" of section 3.
func Lexicographic(a, b string) float64 {
	d := lexFrac(a) - lexFrac(b)
	if d < 0 {
		return -d
	}
	return d
}

func lexFrac(s string) float64 {
	var f, scale float64
	scale = 1.0 / 256.0
	for i := 0; i < len(s) && i < 8; i++ {
		f += float64(s[i]) * scale
		scale /= 256
	}
	return f
}

// CharacterWise is the extended Hamming distance: the count of positions
// at which the strings differ, plus the length difference. The paper's
// "character-wise difference".
func CharacterWise(a, b string) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	diff := 0
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			diff++
		}
	}
	diff += len(a) - n + len(b) - n
	return float64(diff)
}

// Substring measures dissimilarity as 1 − 2·LCS/(|a|+|b|) where LCS is
// the length of the longest common substring (contiguous). Two equal
// strings have distance 0; strings sharing nothing have distance 1. Two
// empty strings are identical (0). The paper's "substring difference".
func Substring(a, b string) float64 {
	if a == b {
		return 0
	}
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	lcs := longestCommonSubstring(a, b)
	return 1 - 2*float64(lcs)/float64(len(a)+len(b))
}

func longestCommonSubstring(a, b string) int {
	// Rolling single-row DP, O(|a|·|b|) time, O(|b|) space.
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	best := 0
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return best
}

// Edit is the Levenshtein edit distance (unit costs) over bytes. It
// allocates nothing for operands whose shorter side is at most
// editStackRow bytes: up to 64 bytes it runs the Myers/Hyyrö
// bit-parallel algorithm, one machine word per column of the longer
// operand; beyond that it runs the two-row dynamic program on stack
// rows. It is safe for concurrent use.
func Edit(a, b string) float64 {
	if a == b {
		return 0
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	// a is now the shorter operand.
	if len(a) == 0 {
		return float64(len(b))
	}
	if len(a) <= 64 {
		return float64(editBitParallel(a, b))
	}
	return float64(editDP(a, b))
}

// editBitParallel is Hyyrö's formulation of Myers' bit-vector
// Levenshtein algorithm: the vertical deltas of one DP column are two
// 64-bit vectors (Pv: +1, Mv: −1) advanced one text byte at a time.
// It requires 1 ≤ len(pat) ≤ 64. Bits above len(pat)−1 carry garbage
// but never influence lower bits (additions and left shifts only carry
// upward), and only bit len(pat)−1 is read.
func editBitParallel(pat, text string) int {
	var peq [256]uint64
	for i := 0; i < len(pat); i++ {
		peq[pat[i]] |= 1 << uint(i)
	}
	last := uint64(1) << uint(len(pat)-1)
	pv, mv := ^uint64(0), uint64(0)
	score := len(pat)
	for i := 0; i < len(text); i++ {
		eq := peq[text[i]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		// The top DP row is D[0][j] = j: every column shifts a +1
		// horizontal delta into row 0.
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// editStackRow bounds the shorter operand of the dynamic-program
// fallback that runs on stack rows; longer operands allocate.
const editStackRow = 256

// editDP is the two-row Levenshtein dynamic program with the rows
// spanning the shorter operand a.
func editDP(a, b string) int {
	var stack [2 * (editStackRow + 1)]int
	var prev, cur []int
	if n := len(a) + 1; n <= editStackRow+1 {
		prev, cur = stack[:n], stack[n:2*n]
	} else {
		rows := make([]int, 2*n)
		prev, cur = rows[:n], rows[n:]
	}
	for i := range prev {
		prev[i] = i
	}
	for j := 1; j <= len(b); j++ {
		cur[0] = j
		bj := b[j-1]
		for i := 1; i <= len(a); i++ {
			cost := 1
			if a[i-1] == bj {
				cost = 0
			}
			cur[i] = min3(prev[i]+1, cur[i-1]+1, prev[i-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(a)]
}

// EditNormalized is Edit scaled by the longer length, mapping to [0,1].
func EditNormalized(a, b string) float64 {
	l := len(a)
	if len(b) > l {
		l = len(b)
	}
	if l == 0 {
		return 0
	}
	return Edit(a, b) / float64(l)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Soundex returns the classic four-character Soundex code of s
// (letter + three digits). Non-ASCII-letter characters are ignored; an
// empty input yields "0000".
func Soundex(s string) string {
	code := make([]byte, 0, 4)
	var lastDigit byte
	for _, r := range strings.ToUpper(s) {
		if r < 'A' || r > 'Z' {
			continue
		}
		d := soundexDigit(byte(r))
		if len(code) == 0 {
			code = append(code, byte(r))
			lastDigit = d
			continue
		}
		// H and W are transparent: they do not reset the run of equal
		// digits. Vowels reset it.
		if r == 'H' || r == 'W' {
			continue
		}
		if d == 0 {
			lastDigit = 0
			continue
		}
		if d != lastDigit {
			code = append(code, '0'+d)
			lastDigit = d
			if len(code) == 4 {
				break
			}
		}
	}
	if len(code) == 0 {
		return "0000"
	}
	for len(code) < 4 {
		code = append(code, '0')
	}
	return string(code)
}

func soundexDigit(c byte) byte {
	switch c {
	case 'B', 'F', 'P', 'V':
		return 1
	case 'C', 'G', 'J', 'K', 'Q', 'S', 'X', 'Z':
		return 2
	case 'D', 'T':
		return 3
	case 'L':
		return 4
	case 'M', 'N':
		return 5
	case 'R':
		return 6
	default:
		return 0 // vowels, H, W, Y
	}
}

// Phonetic is the paper's "phonetic difference": the character-wise
// distance between the Soundex codes of the two strings, so homophones
// ("Smith"/"Smyth") have distance 0.
func Phonetic(a, b string) float64 {
	return CharacterWise(Soundex(a), Soundex(b))
}

// Fold lower-cases and strips non-alphanumeric runes; useful as a
// preprocessing step for the multi-database correspondence example.
func Fold(s string) string {
	var b strings.Builder
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		}
	}
	return b.String()
}
