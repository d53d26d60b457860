package split

// drain blocks, but as a test function it is not walked.
func drain(b *box) {
	<-b.ch
}
