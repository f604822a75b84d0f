package analysis

// ReferencePorterStem is PorterStem as it was before an unchanged word
// was returned as is — the stem always copied back into a new string —
// and before steps 2–4 switched on the penultimate letter: each scans
// its whole rule list in order. differential_test.go and FuzzPorterStem
// hold PorterStem to it.
func ReferencePorterStem(word string) string {
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
	s.firstOf(step2List)
	s.firstOf(step3List)
	s.step4Of(step4List)
	s.step5a()
	s.step5b()
	return string(s.b)
}
