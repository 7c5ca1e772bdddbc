(** The SMV-like input language: {!Ast}, {!Lexer}, {!Parser},
    {!Compile}, and convenience entry points. *)

module Ast = Ast
module Lexer = Lexer
module Parser = Parser
module Flatten = Flatten
module Compile = Compile

(** Parse and compile an SMV source text. *)
let load_string source = Compile.compile (Parser.program source)

(** Parse and compile an SMV file. *)
let load_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let source = really_input_string ic n in
  close_in ic;
  load_string source
