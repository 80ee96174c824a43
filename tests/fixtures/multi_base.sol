pragma solidity ^0.8.19;

contract A {
    uint public x;

    function f(uint v) public {
        x = v;
    }
}

contract B {
    uint public x;

    function f(uint v) public {
        x = v;
    }
}

contract C is A, B {
    function go() public payable {
        x = msg.value;
        f(msg.value);
    }
}
