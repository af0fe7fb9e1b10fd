package main

import "example.com/mod/internal/lib"

func main() { println(lib.ForCaller()) }
