package analysis

// PorterStem implements the classic Porter (1980) suffix-stripping
// algorithm. The implementation follows the original paper's five steps
// (with steps 1a/1b/1c and 5a/5b) and is ASCII-only: terms containing
// non-ASCII letters are returned unchanged, as are terms shorter than
// three characters (stemming them is never beneficial and the original
// algorithm leaves them alone). A word no rule changes is returned as
// is, not copied back into a new string.
func PorterStem(word string) string {
	if len(word) <= 2 {
		return word
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c < 'a' || c > 'z' {
			return word
		}
	}
	s := stemmer{b: []byte(word)}
	s.step1a()
	s.step1b()
	s.step1c()
	s.step2()
	s.step3()
	s.step4()
	s.step5a()
	s.step5b()
	if string(s.b) == word {
		return word
	}
	return string(s.b)
}

type stemmer struct {
	b []byte
}

// isConsonant reports whether b[i] is a consonant per Porter's definition:
// a letter other than a,e,i,o,u, and other than y preceded by a consonant.
func (s *stemmer) isConsonant(i int) bool {
	switch s.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !s.isConsonant(i - 1)
	}
	return true
}

// measure computes m, the number of VC sequences in b[:end], where the
// word form is C?(VC){m}V?.
func (s *stemmer) measure(end int) int {
	m := 0
	i := 0
	// skip initial consonants
	for i < end && s.isConsonant(i) {
		i++
	}
	for {
		// skip vowels
		for i < end && !s.isConsonant(i) {
			i++
		}
		if i >= end {
			return m
		}
		// skip consonants
		for i < end && s.isConsonant(i) {
			i++
		}
		m++
		if i >= end {
			return m
		}
	}
}

// hasVowel reports whether b[:end] contains a vowel.
func (s *stemmer) hasVowel(end int) bool {
	for i := 0; i < end; i++ {
		if !s.isConsonant(i) {
			return true
		}
	}
	return false
}

// doubleConsonant reports whether b[:end] ends with a double consonant.
func (s *stemmer) doubleConsonant(end int) bool {
	if end < 2 {
		return false
	}
	return s.b[end-1] == s.b[end-2] && s.isConsonant(end-1)
}

// cvc reports whether b[:end] ends consonant-vowel-consonant where the
// final consonant is not w, x or y. Used to restore a trailing 'e'.
func (s *stemmer) cvc(end int) bool {
	if end < 3 {
		return false
	}
	if !s.isConsonant(end-1) || s.isConsonant(end-2) || !s.isConsonant(end-3) {
		return false
	}
	switch s.b[end-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func (s *stemmer) hasSuffix(suf string) bool {
	n := len(s.b)
	if len(suf) > n {
		return false
	}
	return string(s.b[n-len(suf):]) == suf
}

// replaceSuffix replaces suf (which the caller has verified) with rep.
func (s *stemmer) replaceSuffix(suf, rep string) {
	s.b = append(s.b[:len(s.b)-len(suf)], rep...)
}

// replaceIfM replaces suf with rep when measure(stem) > threshold.
// Returns true when the suffix matched (even if measure failed), which
// tells rule tables to stop scanning.
func (s *stemmer) replaceIfM(suf, rep string, threshold int) bool {
	if !s.hasSuffix(suf) {
		return false
	}
	stemLen := len(s.b) - len(suf)
	if s.measure(stemLen) > threshold {
		s.replaceSuffix(suf, rep)
	}
	return true
}

// step1a: SSES->SS, IES->I, SS->SS, S->"".
func (s *stemmer) step1a() {
	switch {
	case s.hasSuffix("sses"):
		s.replaceSuffix("sses", "ss")
	case s.hasSuffix("ies"):
		s.replaceSuffix("ies", "i")
	case s.hasSuffix("ss"):
		// unchanged
	case s.hasSuffix("s"):
		s.replaceSuffix("s", "")
	}
}

// step1b: (m>0) EED->EE; (*v*) ED->""; (*v*) ING->"" with cleanup.
func (s *stemmer) step1b() {
	if s.hasSuffix("eed") {
		if s.measure(len(s.b)-3) > 0 {
			s.replaceSuffix("eed", "ee")
		}
		return
	}
	cleanup := false
	if s.hasSuffix("ed") && s.hasVowel(len(s.b)-2) {
		s.replaceSuffix("ed", "")
		cleanup = true
	} else if s.hasSuffix("ing") && s.hasVowel(len(s.b)-3) {
		s.replaceSuffix("ing", "")
		cleanup = true
	}
	if !cleanup {
		return
	}
	switch {
	case s.hasSuffix("at"):
		s.replaceSuffix("at", "ate")
	case s.hasSuffix("bl"):
		s.replaceSuffix("bl", "ble")
	case s.hasSuffix("iz"):
		s.replaceSuffix("iz", "ize")
	case s.doubleConsonant(len(s.b)):
		last := s.b[len(s.b)-1]
		if last != 'l' && last != 's' && last != 'z' {
			s.b = s.b[:len(s.b)-1]
		}
	case s.measure(len(s.b)) == 1 && s.cvc(len(s.b)):
		s.b = append(s.b, 'e')
	}
}

// step1c: (*v*) Y -> I.
func (s *stemmer) step1c() {
	if s.hasSuffix("y") && s.hasVowel(len(s.b)-1) {
		s.b[len(s.b)-1] = 'i'
	}
}

var step2Rules = []struct{ suf, rep string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
	{"anci", "ance"}, {"izer", "ize"}, {"abli", "able"},
	{"alli", "al"}, {"entli", "ent"}, {"eli", "e"}, {"ousli", "ous"},
	{"ization", "ize"}, {"ation", "ate"}, {"ator", "ate"},
	{"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"},
	{"biliti", "ble"},
}

func (s *stemmer) step2() {
	for _, r := range step2Rules {
		if s.replaceIfM(r.suf, r.rep, 0) {
			return
		}
	}
}

var step3Rules = []struct{ suf, rep string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func (s *stemmer) step3() {
	for _, r := range step3Rules {
		if s.replaceIfM(r.suf, r.rep, 0) {
			return
		}
	}
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func (s *stemmer) step4() {
	for _, suf := range step4Suffixes {
		if !s.hasSuffix(suf) {
			continue
		}
		stemLen := len(s.b) - len(suf)
		if suf == "ion" {
			// (m>1 and (*S or *T)) ION ->
			if stemLen > 0 && (s.b[stemLen-1] == 's' || s.b[stemLen-1] == 't') && s.measure(stemLen) > 1 {
				s.replaceSuffix(suf, "")
			}
			return
		}
		if s.measure(stemLen) > 1 {
			s.replaceSuffix(suf, "")
		}
		return
	}
}

// step5a: (m>1) E->""; (m=1 and not *o) E->"".
func (s *stemmer) step5a() {
	if !s.hasSuffix("e") {
		return
	}
	stemLen := len(s.b) - 1
	m := s.measure(stemLen)
	if m > 1 || (m == 1 && !s.cvc(stemLen)) {
		s.b = s.b[:stemLen]
	}
}

// step5b: (m>1 and *d and *L) single letter.
func (s *stemmer) step5b() {
	n := len(s.b)
	if n > 1 && s.b[n-1] == 'l' && s.doubleConsonant(n) && s.measure(n) > 1 {
		s.b = s.b[:n-1]
	}
}
