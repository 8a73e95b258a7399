package vetdead

func useTestOnly() { TestOnly() }
