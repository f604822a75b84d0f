package analysis

// ReferencePorterStem is PorterStem as it was before an unchanged word
// was returned as is: the stem always copied back into a new string.
// differential_test.go holds PorterStem to it.
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
	s.step2()
	s.step3()
	s.step4()
	s.step5a()
	s.step5b()
	return string(s.b)
}
