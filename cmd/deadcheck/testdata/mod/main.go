package main

import (
	"fmt"

	"example.com/mod/internal/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.Name(1))
}
